//! Regenerates the **§V-E cold-cache latency** experiment: first-packet
//! latency for fresh flows among newly deployed hosts.
//!
//! Paper values: intra-group 0.83 ms (LazyCtrl) vs 15.06 ms (OpenFlow);
//! inter-group 5.38 ms (LazyCtrl).
//!
//! ```sh
//! cargo run --release -p lazyctrl-bench --bin repro_coldcache
//! ```

use lazyctrl_bench::render_table;
use lazyctrl_core::scenarios::cold_cache;
use lazyctrl_core::ControlMode;

fn main() {
    println!("§V-E — cold-cache first-packet latency\n");

    let lazy = cold_cache(ControlMode::LazyStatic, 0xCC);
    let base = cold_cache(ControlMode::Baseline, 0xCC);

    let rows = vec![
        vec![
            "lazyctrl".into(),
            format!("{:.2}", lazy.intra_group_ms),
            format!("{:.2}", lazy.inter_group_ms),
            "0.83".into(),
            "5.38".into(),
        ],
        vec![
            "openflow".into(),
            format!("{:.2}", base.intra_group_ms),
            format!("{:.2}", base.inter_group_ms),
            "15.06".into(),
            "15.06".into(),
        ],
    ];
    println!(
        "{}",
        render_table(
            &[
                "mode",
                "intra (ms)",
                "inter (ms)",
                "paper intra",
                "paper inter"
            ],
            &rows
        )
    );
    println!(
        "intra-group speedup vs OpenFlow: {:.1}× (paper: 18×)",
        base.intra_group_ms / lazy.intra_group_ms.max(1e-9)
    );
    println!("\nreproduction target: order-of-magnitude intra-group gap; LazyCtrl's");
    println!("own intra ≪ inter split. (Our baseline omits Floodlight's slow");
    println!("passive topology learning, so its absolute cold path is faster than");
    println!("the paper's 15 ms — see DESIGN.md §1.)");
}
