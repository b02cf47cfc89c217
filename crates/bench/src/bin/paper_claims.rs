//! The paper's checkable sentences, each measured and judged.
//!
//! `cargo run --release -p gridvine-bench --bin paper_claims` takes no
//! arguments: every measurement runs at fixed sizes and seeds, so the
//! transcript is a function of the source. It prints one JSON line per
//! claim:
//!
//! * `claim`, `section` — a short name and the paper section;
//! * `paper` — the sentence, quoted;
//! * `measured` — the claim's headline number;
//! * `series` — every value the verdict reads, as printed;
//! * `tolerance` — the bound, derived from the sentence (or from an
//!   acceptance bound ROADMAP states) and written here before the run;
//! * `verdict` — `holds` or `deviates`;
//! * `reason` — for a deviation, the constant written next to its claim
//!   below, so every recorded deviation is reviewed in a diff; `null`
//!   otherwise.
//!
//! The program exits with status 1 when a row deviates without a
//! reason, holds while it still carries one (the reason is stale), or
//! an experiment's final system fails `GridVineSystem::check`.
//! A deviation is recorded, never hidden by widening its tolerance.

use gridvine_bench::fixtures;
use gridvine_core::{
    Deployment, DeploymentConfig, ExecStats, GridVineConfig, GridVineSystem, JoinMode,
    MediationItem, PoolEvent, QueryOptions, QueryPlan, ResultEvent, SelfOrgConfig, SessionPool,
    Strategy,
};
use gridvine_netsim::churn::ChurnKind;
use gridvine_netsim::prelude::*;
use gridvine_netsim::{rng, Cdf};
use gridvine_pgrid::proto::{PGridMsg, PGridNode, Status};
use gridvine_pgrid::{
    BitString, HashKind, KeyHasher, OrderPreservingHash, Overlay, PeerId, Topology, UniformHash,
};
use gridvine_rdf::{Term, Triple, TriplePatternQuery};
use gridvine_semantic::{
    connectivity_indicator, Correspondence, MappingId, MappingKind, MappingRegistry, Provenance,
    Schema, SchemaId,
};
use gridvine_workload::{recall, QueryConfig, QueryGenerator, Workload, WorkloadConfig};
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};

/// One judged claim: a line of the transcript.
struct Claim {
    claim: &'static str,
    section: &'static str,
    paper: &'static str,
    measured: String,
    series: Vec<(String, String)>,
    tolerance: &'static str,
    holds: bool,
    reason: Option<&'static str>,
}

impl Claim {
    fn verdict(&self) -> &'static str {
        if self.holds {
            "holds"
        } else {
            "deviates"
        }
    }

    /// A deviation without a reason, or a reason on a claim that holds.
    fn unexplained(&self) -> bool {
        self.holds == self.reason.is_some()
    }

    fn json(&self) -> String {
        let series: Vec<String> = (self.series.iter())
            .map(|(label, value)| format!("{}:{value}", quote(label)))
            .collect();
        format!(
            "{{\"claim\":{},\"section\":{},\"paper\":{},\"measured\":{},\"series\":{{{}}},\
             \"tolerance\":{},\"verdict\":{},\"reason\":{}}}",
            quote(self.claim),
            quote(self.section),
            quote(self.paper),
            self.measured,
            series.join(","),
            quote(self.tolerance),
            quote(self.verdict()),
            self.reason.map_or("null".to_string(), quote),
        )
    }
}

/// `s` as a JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `x` with `digits` decimals: a JSON number, and the value a verdict
/// reads (claims are judged on what they print).
fn fixed(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

fn printed(x: f64, digits: usize) -> f64 {
    fixed(x, digits).parse().expect("a formatted float parses")
}

/// The names of the claims that fail the run.
fn unexplained(claims: &[Claim]) -> Vec<&'static str> {
    (claims.iter())
        .filter(|c| c.unexplained())
        .map(|c| c.claim)
        .collect()
}

/// An experiment's final system must pass [`GridVineSystem::check`]:
/// a broken invariant fails the run, whatever its claims read.
fn checked(experiment: &str, sys: &GridVineSystem) {
    if let Err(broken) = sys.check() {
        eprintln!("{experiment}: the final system breaks an invariant: {broken:?}");
        std::process::exit(1);
    }
}

fn main() {
    let measurements: [fn() -> Vec<Claim>; 8] = [e1, e2, e3, e4, e5, e6, e8, a2];
    let mut claims = Vec::new();
    for measure in measurements {
        for claim in measure() {
            println!("{}", claim.json());
            claims.push(claim);
        }
    }
    let failing = unexplained(&claims);
    if !failing.is_empty() {
        eprintln!(
            "verdict and reason disagree (a deviation without a reason, or a stale reason): {}",
            failing.join(", ")
        );
        std::process::exit(1);
    }
}

const E1_PAPER: &str = "A recent deployment of GridVine on 340 machines scattered around the \
    world sharing 17000 triples showed that 40% of the 23000 triple pattern queries we \
    submitted were answered within one second only, and 75% within five seconds.";

const E1_REASON: &str = "The paper's fractions are of the queries submitted. Of the 23 000 \
    submitted here, 4 375 get no answer (3 852 find no triple, 523 time out), so both fractions \
    fall short; over the 18 625 answered queries they are 0.411 and 0.757. ROADMAP item 3 \
    re-measures e1 on the engine.";

/// §2.3's deployment: 340 peers of the WAN driver, a ≈ 17 k-triple
/// corpus, 23 000 single-pattern lookups; one row per threshold.
fn e1() -> Vec<Claim> {
    const SEED: u64 = 1;
    let workload = Workload::generate(WorkloadConfig::paper_scale(SEED));
    let mut deployment = Deployment::new(DeploymentConfig::paper(SEED));
    deployment.preload(workload.all_triples().into_iter().map(|(_, t)| t));
    let generator = QueryGenerator::new(&workload, QueryConfig::default());
    let mut r = rng::derive(SEED, 0xE1);
    let batch: Vec<TriplePatternQuery> = (generator.batch(23_000, &mut r).into_iter())
        .map(|g| g.query)
        .collect();
    let mut report = deployment.run_queries(&batch);
    let answered = report.latencies.len();
    let rows = [
        (
            1.0,
            0.40,
            "e1_within_1s",
            "|fraction of submitted − 0.40| ≤ 0.03",
        ),
        (
            5.0,
            0.75,
            "e1_within_5s",
            "|fraction of submitted − 0.75| ≤ 0.03",
        ),
    ];
    rows.into_iter()
        .map(|(seconds, paper, claim, tolerance)| {
            let of_answered = report.latencies.fraction_leq(seconds);
            let within = (of_answered * answered as f64).round();
            let of_submitted = within / report.submitted as f64;
            let holds = (printed(of_submitted, 3) - paper).abs() <= 0.03;
            Claim {
                claim,
                section: "§2.3",
                paper: E1_PAPER,
                measured: fixed(of_submitted, 3),
                series: vec![
                    ("of_submitted".into(), fixed(of_submitted, 3)),
                    ("of_answered".into(), fixed(of_answered, 3)),
                    ("submitted".into(), report.submitted.to_string()),
                    ("answered".into(), report.answered.to_string()),
                    ("empty".into(), report.not_found.to_string()),
                    ("timed_out".into(), report.timed_out.to_string()),
                ],
                tolerance,
                holds,
                reason: (!holds).then_some(E1_REASON),
            }
        })
        .collect()
}

/// §2.1's routing cost: mean messages per `Retrieve` against
/// `log₂ n` on balanced and data-adapted tries of 16 … 1 024 peers.
fn e2() -> Vec<Claim> {
    const SEED: u64 = 1;
    const TRIALS: usize = 2_000;
    fn mean_messages(topology: &Topology, seed: u64) -> f64 {
        let mut overlay: Overlay<u8> = Overlay::new(topology);
        let mut r = rng::derive(seed, 0xE2);
        let h = OrderPreservingHash::default();
        let mut cdf = Cdf::new();
        for i in 0..TRIALS {
            let key = h.hash(&format!("probe-key-{i}"), 24);
            let origin = PeerId::from_index(r.gen_range(0..topology.len()));
            let route = overlay.route(origin, &key, &mut r).expect("routable");
            cdf.record(route.messages() as f64);
        }
        cdf.mean()
    }
    let mut series = Vec::new();
    let mut per_tree: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut record = |tree: usize, n: usize, mean: f64| {
        let per_log = printed(mean / (n as f64).log2(), 3);
        let name = ["balanced", "adapted"][tree];
        series.push((format!("{name} n={n}"), fixed(per_log, 3)));
        per_tree[tree].push(per_log);
    };
    for exp in 4..=10 {
        let n = 1usize << exp;
        let mut r = rng::derive(SEED, n as u64);
        let balanced = Topology::balanced(n, 2, &mut r);
        record(0, n, mean_messages(&balanced, SEED));
        // 80 % of the keys in the top eighth of the key space.
        let h = UniformHash;
        let skewed: Vec<BitString> = (0..4 * n)
            .map(|i| {
                if i % 5 == 0 {
                    return h.hash(&format!("cold-{i}"), 24);
                }
                let mut key = BitString::parse("111");
                for b in h.hash(&format!("hot-{}", i % (n / 2 + 1)), 21).iter() {
                    key.push(b);
                }
                key
            })
            .collect();
        let adapted = Topology::adapted(&skewed, n, 4 * n / (n / 2).max(1), 24, 2, &mut r);
        if adapted.validate().is_ok() {
            record(1, n, mean_messages(&adapted, SEED + 1));
        }
    }
    let spread = |v: &[f64]| {
        let (lo, hi) = (v.iter()).fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        hi / lo
    };
    let spread = spread(&per_tree[0]).max(spread(&per_tree[1]));
    vec![Claim {
        claim: "e2_log_routing",
        section: "§2.1",
        paper: "Since P-Grid uses a binary tree, Retrieve(key) is intuitively efficient, i.e., \
            O(log(|Π|)), measured in terms of the number of messages required for resolving a \
            search request, for both balanced and unbalanced trees.",
        measured: fixed(spread, 3),
        series,
        tolerance: "per tree shape, mean messages / log₂ n varies by at most 2× over \
            n = 16 … 1 024 (a √n cost would vary 3.2×)",
        holds: printed(spread, 3) <= 2.0,
        reason: None,
    }]
}

const E3_PAPER: &str = "ci ≥ 0 indicates the emergence of a giant connected component in the \
    graph of schemas and mappings. Thus, the mediation layer is not strongly connected as long \
    as ci < 0.";

const E3_GIANT_REASON: &str = "At 50 schemas ci crosses 0 about 37 mappings before a strongly \
    connected component spans half the schemas. ci is computed from degree records only, and a \
    degree criterion locates a giant component in the limit of large random graphs, not at 50 \
    schemas with one-way mappings. ROADMAP 8(e) sweeps n to see whether the gap closes.";

/// §3.1's connectivity indicator: random one-way mappings are added
/// over 50 schemas until `ci ≥ 0` and a strongly connected component
/// spans half of them; every state on the way is checked.
fn e3() -> Vec<Claim> {
    const SCHEMAS: usize = 50;
    const TRIALS: usize = 20;
    const SEED: u64 = 1;
    /// No trial is swept past this many mappings; one that reaches it
    /// without both crossings is reported as censored.
    const CAP: usize = 20 * SCHEMAS;
    let (mut states, mut negative, mut violations, mut censored) = (0usize, 0usize, 0usize, 0);
    let (mut ci_sum, mut giant_sum) = (0usize, 0usize);
    for t in 0..TRIALS {
        let mut r = rng::derive(SEED, t as u64);
        let mut reg = MappingRegistry::new();
        for i in 0..SCHEMAS {
            reg.add_schema(Schema::new(format!("S{i}").as_str(), ["a"]));
        }
        let (mut ci_cross, mut giant_cross) = (None, None);
        let mut m = 0;
        while (ci_cross.is_none() || giant_cross.is_none()) && m < CAP {
            m += 1;
            let (a, b) = loop {
                let (a, b) = (r.gen_range(0..SCHEMAS), r.gen_range(0..SCHEMAS));
                if a != b {
                    break (a, b);
                }
            };
            reg.add_mapping(
                format!("S{a}").as_str(),
                format!("S{b}").as_str(),
                MappingKind::Subsumption,
                Provenance::Manual,
                vec![Correspondence::new("a", "a")],
            );
            let ci = connectivity_indicator(&reg.degree_records());
            states += 1;
            if ci < 0.0 {
                negative += 1;
                violations += usize::from(reg.is_strongly_connected());
            }
            if ci_cross.is_none() && ci >= 0.0 {
                ci_cross = Some(m);
            }
            if giant_cross.is_none() && reg.largest_scc_fraction() >= 0.5 {
                giant_cross = Some(m);
            }
        }
        censored += usize::from(ci_cross.is_none() || giant_cross.is_none());
        ci_sum += ci_cross.unwrap_or(CAP);
        giant_sum += giant_cross.unwrap_or(CAP);
    }
    let ci_mean = printed(ci_sum as f64 / TRIALS as f64, 1);
    let giant_mean = printed(giant_sum as f64 / TRIALS as f64, 1);
    let gap = giant_mean - ci_mean;
    let holds = censored == 0 && gap.abs() <= 5.0;
    vec![
        Claim {
            claim: "e3_disconnected_below_zero",
            section: "§3.1",
            paper: E3_PAPER,
            measured: violations.to_string(),
            series: vec![
                ("states".into(), states.to_string()),
                ("states_ci_below_0".into(), negative.to_string()),
                (
                    "strongly_connected_with_ci_below_0".into(),
                    violations.to_string(),
                ),
            ],
            tolerance: "no strongly connected state with ci < 0, over every state of every trial",
            holds: violations == 0,
            reason: None,
        },
        Claim {
            claim: "e3_giant_component_at_zero",
            section: "§3.1",
            paper: E3_PAPER,
            measured: fixed(gap, 1),
            series: vec![
                ("ci_crossing_mean".into(), fixed(ci_mean, 1)),
                ("half_scc_crossing_mean".into(), fixed(giant_mean, 1)),
                ("censored_trials".into(), censored.to_string()),
                ("cap".into(), CAP.to_string()),
            ],
            tolerance: "uncensored, the mean mapping count at which the largest strongly \
                connected component first spans half the schemas lies within ±5 (a tenth of \
                the schemas) of the mean count at which ci first reaches 0",
            holds,
            reason: (!holds).then_some(E3_GIANT_REASON),
        },
    ]
}

/// §4's recall growth: a corpus with a 3-link manual mapping chain
/// goes through 10 self-organization rounds, 40 probe queries after
/// each.
fn e4() -> Vec<Claim> {
    const SEED: u64 = 1;
    let workload = Workload::generate(WorkloadConfig {
        schemas: 16,
        entities: 200,
        export_fraction: 0.35,
        ..WorkloadConfig::default()
    });
    let config = GridVineConfig {
        peers: 64,
        seed: SEED,
        ..GridVineConfig::default()
    };
    let (mut sys, _) = fixtures::publish(config, &workload);
    for i in 0..3 {
        fixtures::correct_mapping(&mut sys, &workload, i, i + 1, Provenance::Manual);
    }
    let generator = QueryGenerator::new(&workload, QueryConfig::default());
    let probes = generator.batch(40, &mut rng::derive(SEED, 0xE4));
    let mean_recall = |sys: &mut GridVineSystem| {
        let (mut total, mut counted) = (0.0, 0usize);
        for g in probes.iter().filter(|g| !g.true_answers.is_empty()) {
            let origin = sys.random_peer();
            let plan = QueryPlan::search(g.query.clone());
            let options = QueryOptions::new().strategy(Strategy::Iterative);
            if let Ok(out) = sys.execute(origin, &plan, &options) {
                total += recall(&out.accessions(), &g.true_answers);
                counted += 1;
            }
        }
        printed(total / counted.max(1) as f64, 3)
    };
    let cfg = SelfOrgConfig {
        max_new_mappings: 6,
        ..SelfOrgConfig::default()
    };
    let mut recalls = vec![mean_recall(&mut sys)];
    for _ in 1..=10 {
        sys.self_organization_round(&cfg).unwrap();
        recalls.push(mean_recall(&mut sys));
    }
    checked("e4", &sys);
    let last = recalls[recalls.len() - 1];
    let holds = recalls.windows(2).all(|w| w[1] >= w[0]) && last > recalls[0];
    vec![Claim {
        claim: "e4_recall_grows",
        section: "§4",
        paper: "In a sparse network of mappings, few results get returned initially (low \
            recall), while more and more results are retrieved as mappings get created \
            automatically to ensure the global interoperability of the system.",
        measured: fixed(last, 3),
        series: (recalls.iter().enumerate())
            .map(|(round, r)| (format!("round {round}"), fixed(*r, 3)))
            .collect(),
        tolerance: "mean recall never falls from one round to the next, and ends above round 0",
        holds,
        reason: None,
    }]
}

/// §4's deprecation: 12 schemas on a correct manual ring, 4 correct
/// automatic chords and 4 that swap two attributes; 8 assessment
/// rounds, then 2 rounds with composition repair.
fn e5() -> Vec<Claim> {
    const SCHEMAS: usize = 12;
    const BAD: usize = 4;
    const SEED: u64 = 1;
    let workload = Workload::generate(WorkloadConfig {
        schemas: SCHEMAS,
        entities: 150,
        export_fraction: 0.4,
        seed: SEED,
        ..WorkloadConfig::default()
    });
    let config = GridVineConfig {
        peers: 64,
        seed: SEED,
        ..GridVineConfig::default()
    };
    let (mut sys, _) = fixtures::publish(config, &workload);
    for i in 0..SCHEMAS {
        let next = (i + 1) % SCHEMAS;
        fixtures::correct_mapping(&mut sys, &workload, i, next, Provenance::Manual);
    }
    let mut good: BTreeSet<MappingId> = BTreeSet::new();
    for k in 0..BAD {
        let (a, b) = ((3 * k + 1) % SCHEMAS, (3 * k + 3) % SCHEMAS);
        good.insert(fixtures::correct_mapping(
            &mut sys,
            &workload,
            a,
            b,
            Provenance::Automatic,
        ));
    }
    // The attribute of `schema` that carries `concept` (0 and 1 are in
    // every schema and on every ring mapping, so cycles expose a swap).
    let attr_of = |schema: &SchemaId, concept: usize| -> String {
        let s = workload.schemas.iter().find(|s| s.id() == schema).unwrap();
        (s.attributes().iter())
            .find(|a| (workload.ground_truth.concept(schema, a)).is_some_and(|c| c.0 == concept))
            .cloned()
            .expect("organism/accession are always present")
    };
    // Three schemas apart, so no two bad chords share a short cycle.
    let mut bad: BTreeSet<MappingId> = BTreeSet::new();
    for k in 0..BAD {
        let a = workload.schemas[(3 * k) % SCHEMAS].id().clone();
        let b = workload.schemas[(3 * k + 2) % SCHEMAS].id().clone();
        let swapped = vec![
            Correspondence::new(attr_of(&a, 0), attr_of(&b, 1)),
            Correspondence::new(attr_of(&a, 1), attr_of(&b, 0)),
        ];
        let kind = MappingKind::Equivalence;
        let id = sys.insert_mapping(PeerId(0), a, b, kind, Provenance::Automatic, swapped);
        bad.insert(id.unwrap());
    }
    let assess = SelfOrgConfig {
        max_new_mappings: 0,
        ..SelfOrgConfig::default()
    };
    let (mut bad_deprecated, mut good_deprecated) = (0usize, 0usize);
    for _ in 0..8 {
        let rep = sys.self_organization_round(&assess).unwrap();
        bad_deprecated += rep.deprecated.iter().filter(|id| bad.contains(id)).count();
        good_deprecated += rep.deprecated.iter().filter(|id| good.contains(id)).count();
    }
    let repair = SelfOrgConfig {
        repair_with_composition: true,
        ..assess
    };
    let mut composed = Vec::new();
    for _ in 0..2 {
        composed.extend(sys.self_organization_round(&repair).unwrap().composed);
    }
    checked("e5", &sys);
    let correct = (composed.iter())
        .map(|id| sys.registry().mapping(*id).unwrap())
        .filter(|m| {
            (m.correspondences.iter())
                .all(|c| workload.ground_truth.is_correct(&m.source, &m.target, c))
        })
        .count();
    let holds = bad_deprecated == bad.len()
        && good_deprecated == 0
        && !composed.is_empty()
        && correct == composed.len();
    vec![Claim {
        claim: "e5_bad_mappings_deprecated_and_replaced",
        section: "§4",
        paper: "Removing some of the existing mappings fosters the creation of additional \
            mappings, some of which get deprecated by the Bayesian analysis and are gradually \
            replaced by other mapping paths.",
        measured: bad_deprecated.to_string(),
        series: vec![
            ("bad_deprecated".into(), bad_deprecated.to_string()),
            ("bad".into(), bad.len().to_string()),
            ("good_deprecated".into(), good_deprecated.to_string()),
            ("good".into(), good.len().to_string()),
            ("composed_replacements".into(), composed.len().to_string()),
            ("fully_correct_replacements".into(), correct.to_string()),
        ],
        tolerance: "every bad chord deprecated and no good one; at least one replacement \
            composed, every one fully correct",
        holds,
        reason: None,
    }]
}

/// §4's two reformulation strategies on mapping chains of length
/// 1 … 8, 30 systems per length.
fn e6() -> Vec<Claim> {
    const REPEATS: u64 = 30;
    const SEED: u64 = 1;
    let plan = QueryPlan::search(fixtures::chain_query());
    let run = |len: usize, rep: u64, strategy: Strategy| {
        let config = GridVineConfig {
            peers: 128,
            seed: SEED + rep,
            ..GridVineConfig::default()
        };
        let mut sys = fixtures::chain(config, len);
        let origin = sys.random_peer();
        let options = QueryOptions::new().strategy(strategy);
        let outcome = sys.execute(origin, &plan, &options).unwrap();
        checked("e6", &sys);
        outcome
    };
    let (mut series, mut worst, mut agree) = (Vec::new(), 0.0f64, true);
    for len in 1..=8 {
        let (mut iter_msgs, mut rec_msgs) = (0.0, 0.0);
        for rep in 0..REPEATS {
            let it = run(len, rep, Strategy::Iterative);
            let rec = run(len, rep, Strategy::Recursive);
            iter_msgs += it.stats.messages as f64;
            rec_msgs += rec.stats.messages as f64;
            agree &= rec.rows.len() == it.rows.len();
        }
        let (iter_msgs, rec_msgs) = (iter_msgs / REPEATS as f64, rec_msgs / REPEATS as f64);
        let ratio = printed(rec_msgs / iter_msgs, 3);
        worst = worst.max(ratio);
        series.push((format!("len={len} iter"), fixed(iter_msgs, 1)));
        series.push((format!("len={len} rec"), fixed(rec_msgs, 1)));
        series.push((format!("len={len} rec/iter"), fixed(ratio, 3)));
    }
    vec![Claim {
        claim: "e6_recursive_delegation",
        section: "§4",
        paper: "In reformulating queries, we support two approaches: iterative, where a peer \
            iteratively looks for paths of mappings and reformulates the query by itself, and \
            recursive, where the successive reformulations are delegated to intermediate peers.",
        measured: fixed(worst, 3),
        series,
        tolerance: "both strategies return the same rows, and delegating never costs more \
            messages per query: rec/iter ≤ 1 at every chain length 1 … 8",
        holds: agree && worst <= 1.0,
        reason: None,
    }]
}

/// One e8 row: a batch opened at once in one [`SessionPool`] on a fresh
/// system, each query from an origin of one seeded stream. A query is
/// answered once it delivers a row; its latency runs from its open
/// instant to its last row-carrying delivery, its slowest matched
/// chain.
struct E8Batch {
    answered: usize,
    latencies: Cdf,
    /// Solution rows, summed over the queries.
    rows: usize,
    stats: ExecStats,
}

/// §4's reformulation on §2.3's deployment: 340 peers on the 2007 WAN
/// model, 400 queries against 16 schemas on a manual mapping chain,
/// plain and at TTL 1 … 8, plus 100 conjunctive queries at TTL 4.
fn e8() -> Vec<Claim> {
    const SEED: u64 = 1;
    const QUERIES: usize = 400;
    const PEERS: usize = 340;
    let w = Workload::generate(WorkloadConfig {
        schemas: 16,
        entities: 400,
        export_fraction: 0.35,
        seed: SEED,
        ..WorkloadConfig::default()
    });
    let mappings = w.chain_mappings();
    // A fresh system per batch: no leftover load, learned leaves or
    // closure caches.
    let run = |plans: &[QueryPlan], options: &QueryOptions| {
        let config = GridVineConfig {
            peers: PEERS,
            refs_per_level: 3,
            hash: HashKind::OrderPreserving,
            latency: LatencyConfig::planetlab_2007(),
            seed: SEED,
            ..GridVineConfig::default()
        };
        let (mut sys, _) = fixtures::publish(config, &w);
        for m in mappings.iter().cloned() {
            sys.insert_mapping(
                PeerId(0),
                m.source,
                m.target,
                m.kind,
                m.provenance,
                m.correspondences,
            )
            .unwrap();
        }
        let mut origins = rng::derive(SEED, 0xE8);
        let mut pool = SessionPool::new();
        let mut opened = BTreeMap::new();
        for plan in plans {
            let origin = PeerId::from_index(origins.gen_range(0..PEERS));
            let id = pool.open(&mut sys, origin, plan, options).unwrap();
            opened.insert(id, (sys.now(), None));
        }
        let mut batch = E8Batch {
            answered: 0,
            latencies: Cdf::new(),
            rows: 0,
            stats: ExecStats::default(),
        };
        while let Some(event) = pool.step(&mut sys) {
            match event {
                PoolEvent::Delivered {
                    session,
                    at,
                    events,
                } => {
                    let rows = |e: &ResultEvent| matches!(e, ResultEvent::Rows(r) if !r.is_empty());
                    if events.iter().any(rows) {
                        opened.get_mut(&session).unwrap().1 = Some(at);
                    }
                }
                PoolEvent::Finished { session, .. } | PoolEvent::Failed { session, .. } => {
                    let (rows, stats) = pool.take_counts(session).unwrap();
                    batch.stats += stats;
                    batch.rows += rows;
                }
            }
        }
        checked("e8", &sys);
        for (open, last) in opened.values() {
            if let Some(last) = last {
                batch.answered += 1;
                batch
                    .latencies
                    .record_duration(last.saturating_since(*open));
            }
        }
        batch
    };
    let generator = QueryGenerator::new(&w, QueryConfig::default());
    let mut r = rng::seeded(SEED ^ 0xE8);
    let batch: Vec<TriplePatternQuery> = (generator.batch(QUERIES, &mut r).into_iter())
        .map(|g| g.query)
        .collect();
    let mut series = Vec::new();
    let mut row = |mode: &str, mean: f64, b: &E8Batch| {
        let mut lat = b.latencies.clone();
        let within = printed(lat.fraction_leq(1.0), 3);
        for (column, value) in [
            ("answered", b.answered.to_string()),
            ("mean", fixed(mean, 2)),
            ("≤1s", fixed(within, 3)),
            ("≤5s", fixed(lat.fraction_leq(5.0), 3)),
            ("median_s", fixed(lat.median(), 2)),
            ("p95_s", fixed(lat.quantile(0.95), 2)),
            ("subqueries", b.stats.subqueries.to_string()),
            ("mapping_fetches", b.stats.mapping_fetches.to_string()),
            ("messages", b.stats.messages.to_string()),
        ] {
            series.push((format!("{mode} {column}"), value));
        }
        within
    };
    let iterative = QueryOptions::new().strategy(Strategy::Iterative);
    let lookups: Vec<QueryPlan> = batch.iter().cloned().map(QueryPlan::pattern).collect();
    row("plain", 1.0, &run(&lookups, &iterative.ttl(0)));
    let searches: Vec<QueryPlan> = batch.iter().cloned().map(QueryPlan::search).collect();
    let mut within = Vec::new();
    for ttl in [1usize, 2, 4, 8] {
        let b = run(&searches, &iterative.ttl(ttl));
        let schemas = b.stats.schemas_visited as f64 / QUERIES as f64;
        within.push(row(&format!("ttl={ttl}"), schemas, &b));
    }
    // Two patterns disseminated in parallel and joined at the origin;
    // its `mean` is solution rows, not schemas.
    let mut r = rng::seeded(SEED ^ 0xC0);
    let conj: Vec<QueryPlan> = (generator.conjunctive_batch(QUERIES / 4, &mut r).into_iter())
        .map(|g| QueryPlan::conjunctive(g.query))
        .collect();
    let independent = iterative.ttl(4).join_mode(JoinMode::Independent);
    let b = run(&conj, &independent);
    row("conjunctive ttl=4", b.rows as f64 / b.answered as f64, &b);
    let holds = within.windows(2).all(|w| w[1] <= w[0]);
    vec![Claim {
        claim: "e8_reformulation_costs_round_trips",
        section: "§4",
        paper: "iterative, where a peer iteratively looks for paths of mappings and reformulates \
            the query by itself",
        measured: fixed(within[within.len() - 1], 3),
        series,
        tolerance: "each extra mapping hop adds a sequential fetch and lookup, so the ≤ 1 s \
            fraction never rises from one TTL to the next (1 → 2 → 4 → 8)",
        holds,
        reason: None,
    }]
}

const A2_REASON: &str = "Under harsh churn replication barely helps: answered 0.828 / 0.850 / \
    0.843 at 1 / 2 / 4 replicas per path. The failed share stays near the 0.2 share of time a \
    harsh-churn peer is down even with 4 replicas, so the failures are not the last replica of \
    the data going down. Suspected: forwarding through dead references in `pgrid::proto`. ROADMAP \
    3(c) moves a2 to the engine's retry protocol.";

/// §2.1's replicas under churn: 500 keys on a depth-5 trie with 1, 2
/// or 4 peers per path, 400 lookups over a simulated hour of churn.
fn a2() -> Vec<Claim> {
    const SEED: u64 = 1;
    const QUERIES: usize = 400;
    const PATHS: usize = 32;
    fn answered(replication: usize, churn: &ChurnConfig) -> f64 {
        let peers = PATHS * replication;
        let mut rtop = rng::derive(SEED, replication as u64);
        let paths = (0..PATHS)
            .flat_map(|leaf| std::iter::repeat_n(BitString::from_u64(leaf as u64, 5), replication))
            .collect();
        let topology = Topology::from_paths(paths, 3, &mut rtop);
        topology.validate().expect("valid");
        let mut net: Network<PGridNode<MediationItem>, PGridMsg<MediationItem>> =
            Network::new(NetworkConfig::planetlab(), SEED);
        for i in 0..peers {
            let node = PGridNode::from_topology(&topology, i, SimDuration::from_secs(10));
            net.add_node(node);
        }
        // One triple per key, on every replica of its path.
        let hasher = OrderPreservingHash::default();
        let mut keys = Vec::new();
        for i in 0..500 {
            let value = format!("item-{i}");
            let key = hasher.hash(&value, 24);
            let subject = format!("seq:I{i}");
            let t = Triple::new(subject.as_str(), "DB#Value", Term::literal(value));
            for p in topology.responsible(&key) {
                net.node_mut(NodeId::from_index(p.index()))
                    .store_mut()
                    .insert(key.clone(), MediationItem::Triple(t.clone()));
            }
            keys.push(key);
        }
        let horizon = SimTime(3_600_000_000);
        let mut churn = ChurnProcess::generate(churn, peers, horizon, SEED);
        let mut qr = rng::derive(SEED, 0xA2);
        let mut submitted = 0usize;
        let gap = horizon.as_micros() / QUERIES as u64;
        for qi in 0..QUERIES {
            let at = SimTime(qi as u64 * gap);
            net.run_until(at);
            for ev in churn.due(at) {
                match ev.kind {
                    ChurnKind::Fail => net.crash(ev.node),
                    ChurnKind::Recover => net.recover(ev.node),
                }
            }
            let alive = net.alive_nodes();
            if alive.is_empty() {
                continue;
            }
            let origin = alive[qr.gen_range(0..alive.len())];
            let key = keys[qr.gen_range(0..keys.len())].clone();
            net.invoke(origin, move |node, ctx| node.start_retrieve(ctx, key));
            submitted += 1;
        }
        net.run_until_quiescent();
        let ok = (0..peers)
            .flat_map(|i| net.node_mut(NodeId::from_index(i)).drain_completed())
            .filter(|o| o.status == Status::Ok)
            .count();
        printed(ok as f64 / submitted.max(1) as f64, 3)
    }
    let none = ChurnConfig {
        churny_fraction: 0.0,
        ..ChurnConfig::moderate()
    };
    let mut series = Vec::new();
    let mut holds = true;
    let mut harsh_recovered = 0.0;
    for (name, churn) in [
        ("none", none),
        ("moderate", ChurnConfig::moderate()),
        ("harsh", ChurnConfig::harsh()),
    ] {
        let by_factor: Vec<f64> = [1usize, 2, 4].map(|r| answered(r, &churn)).to_vec();
        for (r, a) in [1, 2, 4].iter().zip(&by_factor) {
            series.push((format!("{name} replicas={r}"), fixed(*a, 3)));
        }
        let (one, four) = (by_factor[0], by_factor[2]);
        holds &= four - one >= 0.5 * (1.0 - one);
        if name == "harsh" {
            harsh_recovered = (four - one) / (1.0 - one);
        }
    }
    vec![Claim {
        claim: "a2_replicas_ride_out_churn",
        section: "§2.1",
        paper: "Peers also maintain references σ(p) to peers having the same path, i.e., their \
            replicas that duplicate their content to ensure fault-tolerance and resilience to \
            network churn.",
        measured: fixed(harsh_recovered, 3),
        series,
        tolerance: "under every churn level, 4 replicas per path win back at least half of \
            what 1 replica loses: answered(4) − answered(1) ≥ ½ (1 − answered(1)); measured \
            is the share won back under harsh churn",
        holds,
        reason: (!holds).then_some(A2_REASON),
    }]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn claim(holds: bool, reason: Option<&'static str>) -> Claim {
        Claim {
            claim: "c",
            section: "§2.3",
            paper: "40% \"answered\" within one second",
            measured: "0.333".into(),
            series: vec![("of_submitted".into(), "0.333".into())],
            tolerance: "|m − 0.40| ≤ 0.03",
            holds,
            reason,
        }
    }

    #[test]
    fn only_a_deviation_without_a_reason_or_a_stale_reason_fails_the_run() {
        assert_eq!(unexplained(&[claim(false, None)]), ["c"]);
        assert!(unexplained(&[claim(false, Some("measured why"))]).is_empty());
        assert!(unexplained(&[claim(true, None)]).is_empty());
        assert_eq!(unexplained(&[claim(true, Some("fixed since"))]), ["c"]);
    }

    #[test]
    fn a_row_is_one_json_object_with_quotes_and_section_signs_intact() {
        let line = claim(false, Some("a \\ b")).json();
        assert_eq!(
            line,
            "{\"claim\":\"c\",\"section\":\"§2.3\",\
             \"paper\":\"40% \\\"answered\\\" within one second\",\"measured\":0.333,\
             \"series\":{\"of_submitted\":0.333},\"tolerance\":\"|m − 0.40| ≤ 0.03\",\
             \"verdict\":\"deviates\",\"reason\":\"a \\\\ b\"}"
        );
        assert_eq!(quote("x\ny\u{1}"), "\"x\\ny\\u0001\"");
        assert!(claim(true, None)
            .json()
            .ends_with("\"verdict\":\"holds\",\"reason\":null}"));
    }
}
