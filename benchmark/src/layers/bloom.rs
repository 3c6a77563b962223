//! Layer `bloom`: the filter under every G-FIB peer entry, at the
//! geometry the switch builds it with.

use lazyctrl::bloom::BloomFilter;
use lazyctrl::net::HostId;
use lazyctrl::trace::Trace;
use std::hint::black_box;

use super::ns_per_op;
use crate::metrics::Bag;
use crate::spans::Recorder;

/// Filters built per insert pass, so a pass is long enough to time.
const FILTERS_PER_PASS: usize = 64;
/// Keys a query pass looks up.
const QUERY_KEYS: usize = 16_384;

/// Insert and query cost on a filter holding one switch's worth of the
/// workload's hosts, at the switch's own sizing (<0.1 % false positives,
/// at least 16 expected items).
pub fn probes(rec: &mut Recorder, trace: &Trace, bag: &mut Bag) {
    let topo = &trace.topology;
    let per_switch = (topo.num_hosts() / topo.num_switches.max(1)).max(1);
    let fresh = || BloomFilter::with_capacity((per_switch as u64).max(16), 0.001);
    let local: Vec<[u8; 6]> = (0..per_switch as u32)
        .map(|h| HostId::new(h).mac().octets())
        .collect();

    // Insert: what a G-FIB rebuild pays per advertised host.
    let insert = ns_per_op(rec, "bloom.insert", |clock| {
        for _ in 0..FILTERS_PER_PASS {
            let mut filter = fresh();
            clock.time(|| {
                for key in &local {
                    filter.insert(key);
                }
            });
            black_box(&filter);
        }
        (FILTERS_PER_PASS * local.len()) as u64
    });
    bag.set("bloom.insert_ns", insert);

    // Query: destinations drawn from the trace, so the hit/miss mix is
    // the workload's (most destinations live behind another switch).
    let mut filter = fresh();
    for key in &local {
        filter.insert(key);
    }
    let wanted: Vec<[u8; 6]> = trace
        .flows
        .iter()
        .take(QUERY_KEYS)
        .map(|f| f.dst.mac().octets())
        .collect();
    let query = ns_per_op(rec, "bloom.query", |clock| {
        let hits = clock.time(|| wanted.iter().filter(|key| filter.contains(key)).count());
        black_box(hits);
        wanted.len() as u64
    });
    bag.set("bloom.query_ns", query);
}
