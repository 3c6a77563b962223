//! Layer `proto`: the wire codec and the size computation the bandwidth
//! model calls for every message on a capacitated link.

pub use lazyctrl::proto::Message;
use std::hint::black_box;

use super::ns_per_op;
use crate::metrics::Bag;
use crate::spans::Recorder;

/// Codec cost over `mix` — messages the workload's own switches,
/// controller and (where there is one) cluster plane produced.
pub fn probes(rec: &mut Recorder, mix: &[Message], bag: &mut Bag) {
    let ops = mix.len() as u64;
    let encode = ns_per_op(rec, "proto.encode", |clock| {
        clock.time(|| {
            for m in mix {
                black_box(m.encode());
            }
        });
        ops
    });
    bag.set("proto.encode_ns", encode);

    let wires: Vec<Vec<u8>> = mix.iter().map(Message::encode).collect();
    let decode = ns_per_op(rec, "proto.decode", |clock| {
        clock.time(|| {
            for w in &wires {
                black_box(Message::decode(w).expect("own encoding decodes"));
            }
        });
        ops
    });
    bag.set("proto.decode_ns", decode);

    let wire_len = ns_per_op(rec, "proto.wire_len", |clock| {
        let total: usize = clock.time(|| mix.iter().map(Message::wire_len).sum());
        black_box(total);
        ops
    });
    bag.set("proto.wire_len_ns", wire_len);
}
