//! Ablation A1 — order-preserving vs uniform hash under skew (§2.2).
//!
//! GridVine's order-preserving hash keeps lexicographically close keys
//! together (enabling the `%prefix%`-style searches of §2.3) at the
//! price of storage skew when the key population is skewed; the
//! classic uniform hash balances load but destroys locality. This
//! ablation quantifies the trade, with and without the data-adapted
//! (unbalanced) trie that P-Grid uses to win the balance back.
//!
//! Usage: `exp_a1_hash_balance [peers] [triples] [seed]`

use gridvine_bench::{f, Args, Table};
use gridvine_netsim::rng;
use gridvine_netsim::rng::Zipf;
use gridvine_pgrid::{BitString, HashKind, LoadStats, Overlay, PeerId, Topology, UpdateOp};
use gridvine_workload::ORGANISMS;
use rand::Rng;

/// 64-bit keys: deep enough for the order-preserving hash to resolve
/// past the shared `seq:P` prefix of accession subjects (each character
/// consumes ≈6.6 bits).
const KEY_DEPTH: usize = 64;

fn keys_for_corpus(hash: HashKind, n: usize, seed: u64) -> Vec<BitString> {
    let hasher = hash.build();
    let zipf = Zipf::new(ORGANISMS.len(), 1.0);
    let mut r = rng::derive(seed, 0xA1);
    (0..n)
        .map(|i| match i % 3 {
            // Subjects: unique accessions (shared "seq:P" prefix —
            // the order-preserving pain case).
            0 => hasher.hash(&format!("seq:P{:05}", r.gen_range(0..60_000)), KEY_DEPTH),
            // Predicates: few and hot.
            1 => hasher.hash(&format!("EMBL#Attr{}", r.gen_range(0..12)), KEY_DEPTH),
            // Objects: Zipf-skewed organism names.
            _ => hasher.hash(ORGANISMS[zipf.sample(&mut r)], KEY_DEPTH),
        })
        .collect()
}

fn load_stats(topology: &Topology, keys: &[BitString], seed: u64) -> LoadStats {
    let mut overlay: Overlay<u32> = Overlay::new(topology).without_replication();
    let mut r = rng::derive(seed, 0xA1F);
    for (i, key) in keys.iter().enumerate() {
        overlay
            .update(PeerId(0), UpdateOp::Insert, key.clone(), i as u32, &mut r)
            .expect("routable");
    }
    LoadStats::compute(&overlay.load_vector())
}

fn main() {
    let mut args = Args::from_env("exp_a1_hash_balance [peers] [triples] [seed]");
    let peers: usize = args.or(128);
    let triples: usize = args.or(30_000);
    let seed: u64 = args.or(1);
    args.done();

    println!("A1: storage balance — {peers} peers, {triples} index entries");
    let mut table = Table::new(&["hash", "tree", "gini", "max/mean", "empty %"]);
    let mut r = rng::derive(seed, 7);

    for hash in [HashKind::OrderPreserving, HashKind::Uniform] {
        let keys = keys_for_corpus(hash, triples, seed);

        let balanced = Topology::balanced(peers, 2, &mut r);
        let s = load_stats(&balanced, &keys, seed);
        table.row(&[
            format!("{hash:?}"),
            "balanced".into(),
            f(s.gini, 3),
            f(s.imbalance, 1),
            f(s.empty_fraction * 100.0, 1),
        ]);

        // Data-adapted trie: P-Grid splits where the data is.
        let adapted = Topology::adapted(&keys, peers, triples / peers, KEY_DEPTH, 2, &mut r);
        if adapted.validate().is_ok() {
            let s = load_stats(&adapted, &keys, seed);
            table.row(&[
                format!("{hash:?}"),
                "adapted".into(),
                f(s.gini, 3),
                f(s.imbalance, 1),
                f(s.empty_fraction * 100.0, 1),
            ]);
        }
    }
    println!("\n{}", table.render());
    println!(
        "expected shape: the uniform hash on a balanced tree is the only well-balanced\n\
         configuration; the order-preserving hash concentrates the skewed corpus\n\
         (every peer outside the populated key region is empty). The data-adapted\n\
         trie helps at the margin but cannot split *identical* hot keys (a popular\n\
         organism value is one key) — the irreducible per-key hotspot that P-Grid\n\
         addresses with σ(p) replication rather than with the trie shape."
    );
}
