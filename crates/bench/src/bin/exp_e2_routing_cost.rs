//! Experiment E2 — the `O(log |Π|)` routing-cost claim (§2.1/§2.3).
//!
//! "Since P-Grid uses a binary tree, Retrieve(key) is intuitively
//! efficient, i.e., O(log(|Π|)), measured in terms of the number of
//! messages required for resolving a search request, for both balanced
//! and unbalanced trees."
//!
//! Sweeps network sizes 16…1024, measures mean/p99 messages per
//! `Retrieve` on balanced trees and on data-adapted (unbalanced) trees,
//! and prints the ratio against `log2(leaves)`.
//!
//! Usage: `exp_e2_routing_cost [trials_per_size] [seed]`

use gridvine_bench::{f, Args, Table};
use gridvine_netsim::rng;
use gridvine_netsim::Cdf;
use gridvine_pgrid::{
    BitString, KeyHasher, OrderPreservingHash, Overlay, PeerId, Topology, UniformHash,
};
use rand::Rng;

fn measure(topology: &Topology, trials: usize, seed: u64) -> (f64, f64, usize) {
    let mut overlay: Overlay<u8> = Overlay::new(topology);
    let mut r = rng::derive(seed, 0xE2);
    let h = OrderPreservingHash::default();
    let mut cdf = Cdf::new();
    for i in 0..trials {
        let key = h.hash(&format!("probe-key-{i}"), 24);
        let origin = PeerId::from_index(r.gen_range(0..topology.len()));
        let route = overlay.route(origin, &key, &mut r).expect("routable");
        cdf.record(route.messages() as f64);
    }
    (cdf.mean(), cdf.quantile(0.99), topology.depth())
}

fn main() {
    let mut args = Args::from_env("exp_e2_routing_cost [trials_per_size] [seed]");
    let trials: usize = args.or(2_000);
    let seed: u64 = args.or(1);
    args.done();

    println!("E2: messages per Retrieve vs network size ({trials} trials per size)");
    let mut table = Table::new(&[
        "peers",
        "depth",
        "mean msgs",
        "p99 msgs",
        "mean/log2(n)",
        "tree",
    ]);

    for exp in 4..=10 {
        let n = 1usize << exp;
        let mut r = rng::derive(seed, n as u64);

        // Balanced tree.
        let balanced = Topology::balanced(n, 2, &mut r);
        let (mean, p99, depth) = measure(&balanced, trials, seed);
        table.row(&[
            n.to_string(),
            depth.to_string(),
            f(mean, 2),
            f(p99, 1),
            f(mean / (n as f64).log2(), 3),
            "balanced".into(),
        ]);

        // Unbalanced (data-adapted to a skewed corpus).
        let h = UniformHash;
        let skewed: Vec<BitString> = (0..4 * n)
            .map(|i| {
                // 80 % of keys in the top 1/8 of the key space.
                let s = if i % 5 != 0 {
                    format!("hot-{}", i % (n / 2 + 1))
                } else {
                    format!("cold-{i}")
                };
                let mut key = BitString::parse("111");
                let rest = h.hash(&s, 21);
                for b in rest.iter() {
                    key.push(b);
                }
                if i % 5 == 0 {
                    h.hash(&s, 24)
                } else {
                    key
                }
            })
            .collect();
        let adapted = Topology::adapted(&skewed, n, 4 * n / (n / 2).max(1), 24, 2, &mut r);
        if adapted.validate().is_ok() {
            let (mean_u, p99_u, depth_u) = measure(&adapted, trials, seed + 1);
            table.row(&[
                n.to_string(),
                depth_u.to_string(),
                f(mean_u, 2),
                f(p99_u, 1),
                f(mean_u / (n as f64).log2(), 3),
                "adapted".into(),
            ]);
        }
    }
    println!("\n{}", table.render());
    println!(
        "paper claim: messages grow as O(log n) — the mean/log2(n) column should stay ~constant."
    );
}
