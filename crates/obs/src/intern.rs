//! Interned identifiers for trace records.
//!
//! Records store `u16` IDs, never strings. The engine's vocabulary is known
//! at compile time, so records use fixed constants and static name tables.

/// Subsystem IDs (the `subsys` field of a record).
pub mod subsys {
    /// Switch datapath (frames, table lookups, PacketIn emission).
    pub const SWITCH: u16 = 1;
    /// Controller logic (lazy/baseline handlers, FlowMod emission).
    pub const CONTROLLER: u16 = 2;
    /// Cluster plane (peer sync, regroup, ownership).
    pub const CLUSTER: u16 = 3;
    /// World glue (injected faults, bookkeeping).
    pub const WORLD: u16 = 4;

    /// Display names, indexed by subsystem ID. ID 0 (`"sim"`) belongs to
    /// the simulation kernel, which records nothing under its own ID.
    pub const NAMES: [&str; 5] = ["sim", "switch", "controller", "cluster", "world"];

    /// Name for a subsystem ID (`"?"` if out of range).
    pub fn name(id: u16) -> &'static str {
        NAMES.get(id as usize).copied().unwrap_or("?")
    }
}

/// Record-kind IDs (the `kind` field of a record).
pub mod kind {
    /// An event was popped from the queue and dispatched (`a` = dense event kind).
    pub const EVENT_POP: u16 = 0;
    /// A flow setup started (first frame of a pair entered the fabric).
    pub const FLOW_START: u16 = 1;
    /// A data frame reached its destination host.
    pub const FRAME_DELIVERED: u16 = 2;
    /// A switch sent a PacketIn to its controller.
    pub const PACKET_IN_SENT: u16 = 3;
    /// A controller received a PacketIn.
    pub const PACKET_IN_RECV: u16 = 4;
    /// A controller sent a FlowMod.
    pub const FLOW_MOD_SENT: u16 = 5;
    /// A switch received (and installed) a FlowMod.
    pub const FLOW_MOD_RECV: u16 = 6;
    /// A controller sent a PacketOut.
    pub const PACKET_OUT_SENT: u16 = 7;
    /// A control-plane message was queued toward a switch.
    pub const MSG_TO_SWITCH: u16 = 8;
    /// A control-plane message was queued toward a controller.
    pub const MSG_TO_CONTROLLER: u16 = 9;
    /// A controller-to-controller peer message was sent.
    pub const CTRL_PEER_SEND: u16 = 10;
    /// A handler finished (`a` = dense event kind, `b` = outputs emitted).
    pub const HANDLER_DONE: u16 = 11;
    /// Host ownership moved between controllers.
    pub const OWNERSHIP_TRANSFER: u16 = 12;
    /// Injected fault: controller crash.
    pub const CRASH_CONTROLLER: u16 = 13;
    /// Injected fault: controller recovery.
    pub const RECOVER_CONTROLLER: u16 = 14;
    /// Injected fault: switch crash.
    pub const CRASH_SWITCH: u16 = 15;
    /// Injected fault: switch recovery.
    pub const RECOVER_SWITCH: u16 = 16;
    /// Injected fault: link degradation.
    pub const LINK_DEGRADE: u16 = 17;
    /// Injected fault: link loss.
    pub const LINK_LOSS: u16 = 18;
    /// Injected change: hosts migrated.
    pub const MIGRATE_HOSTS: u16 = 19;
    /// Injected change: traffic burst.
    pub const TRAFFIC_BURST: u16 = 20;
    /// Cluster regroup round observed.
    pub const REGROUP: u16 = 21;
    /// A frame left through an inter-switch tunnel.
    pub const TUNNEL_SENT: u16 = 22;
    /// Injected fault: network partitioned into islands (`a` = group count).
    pub const PARTITION_NETWORK: u16 = 23;
    /// Injected repair: all partition islands healed.
    pub const HEAL_PARTITION: u16 = 24;
    /// A controller sent an ECN-style congestion notice to a switch
    /// (`a` = target switch, `b` = sending member).
    pub const CONGESTION_NOTICE: u16 = 25;

    /// Display names, indexed by kind ID.
    pub const NAMES: [&str; 26] = [
        "event_pop",
        "flow_start",
        "frame_delivered",
        "packet_in_sent",
        "packet_in_recv",
        "flow_mod_sent",
        "flow_mod_recv",
        "packet_out_sent",
        "msg_to_switch",
        "msg_to_controller",
        "ctrl_peer_send",
        "handler_done",
        "ownership_transfer",
        "crash_controller",
        "recover_controller",
        "crash_switch",
        "recover_switch",
        "link_degrade",
        "link_loss",
        "migrate_hosts",
        "traffic_burst",
        "regroup",
        "tunnel_sent",
        "partition_network",
        "heal_partition",
        "congestion_notice",
    ];

    /// Name for a kind ID (`"?"` if out of range).
    pub fn name(id: u16) -> &'static str {
        NAMES.get(id as usize).copied().unwrap_or("?")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_tables_cover_ids() {
        assert_eq!(subsys::name(subsys::CLUSTER), "cluster");
        assert_eq!(kind::name(kind::FLOW_MOD_RECV), "flow_mod_recv");
        assert_eq!(kind::name(999), "?");
    }
}
