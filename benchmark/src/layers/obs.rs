//! Layer `obs`: the program's own sampling profiler, read off the traced
//! run — where the event loop's host time went, by event kind and by
//! subsystem.

use lazyctrl::core::{DetailedRun, EVENT_KIND_NAMES};
use lazyctrl::obs::intern::subsys;
use lazyctrl::obs::KindProfile;

use crate::metrics::{find, Bag};

/// Sets `obs.kind.<kind>.{count,share}` and `obs.subsys.<s>.share` from
/// the profiles of a traced run's days, summed. A kind's share is its
/// exact dispatch count times its sampled mean dispatch time, over the
/// sum of those products.
///
/// # Panics
///
/// Panics if the run was not traced.
pub fn profile_metrics(traced_days: &[DetailedRun], bag: &mut Bag) {
    let rows: Vec<_> = traced_days
        .iter()
        .flat_map(|d| {
            let obs = d.obs.as_ref().expect("traced run carries obs");
            obs.profile.kind_profiles()
        })
        .collect();
    let est_ns = |k: &KindProfile| k.count as f64 * k.ns.mean().unwrap_or(0.0);
    let total: f64 = rows.iter().map(est_ns).sum();
    let share = |ns: f64| if total > 0.0 { ns / total } else { 0.0 };

    let mut by_subsys = [0.0; subsys::NAMES.len()];
    for (idx, kind) in EVENT_KIND_NAMES.iter().enumerate() {
        let of_kind = || rows.iter().filter(|k| k.kind as usize == idx);
        let ns: f64 = of_kind().map(est_ns).sum();
        if let Some(k) = of_kind().next() {
            by_subsys[k.subsys as usize] += ns;
        }
        // A kind added to the program after this benchmark was defined
        // has no declared metric; its time still counts in the totals.
        let (count, part) = (
            format!("obs.kind.{kind}.count"),
            format!("obs.kind.{kind}.share"),
        );
        if find(&count).is_some() {
            bag.set(&count, of_kind().map(|k| k.count).sum::<u64>() as f64);
            bag.set(&part, share(ns));
        }
    }
    for id in [
        subsys::WORLD,
        subsys::SWITCH,
        subsys::CONTROLLER,
        subsys::CLUSTER,
    ] {
        let name = format!("obs.subsys.{}.share", subsys::name(id));
        bag.set(&name, share(by_subsys[id as usize]));
    }
}
