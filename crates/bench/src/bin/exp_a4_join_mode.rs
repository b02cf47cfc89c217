//! Ablation A4 — conjunctive join policy (§2.3).
//!
//! The paper resolves conjunctive queries "by iteratively resolving each
//! triple pattern contained in the query and aggregating the sets of
//! results retrieved", without fixing the aggregation policy. This
//! ablation compares the two classic options on a selective ∧
//! unselective two-pattern join:
//!
//! * `Independent` — resolve both patterns over the network, join at the
//!   origin: ships the full extension of the unconstrained pattern.
//! * `BoundSubstitution` — resolve the selective pattern first, then
//!   sweep the second pattern once with the surviving rows' binding
//!   column on its requests: the same messages as one independent
//!   sweep, shipped bindings proportional to the join result, and one
//!   carried seed term per surviving row per request.
//!
//! Two axes. While the unselective pattern's extension grows (first
//! table), `shipped(Independent)` grows linearly with the corpus and
//! everything about `Bound` stays flat. While the *selective* side
//! grows at the largest corpus (second table), `Bound`'s messages stay
//! flat but what its requests carry and its replies ship grows past
//! what `Independent` ships, and the winner flips. Total cost is
//! modelled as `messages + (shipped + carried) / batch`, with one batch
//! factor for terms on a request and rows on a response.
//!
//! Usage: `exp_a4_join_mode [selective_matches] [seed]`

use gridvine_bench::{f, Args, Table};
use gridvine_core::{GridVineConfig, GridVineSystem, JoinMode, QueryOptions, QueryPlan, Strategy};
use gridvine_pgrid::PeerId;
use gridvine_rdf::{ConjunctiveQuery, PatternTerm, Term, Triple, TriplePattern};
use gridvine_semantic::Schema;

/// Results per response message when shipping bindings back to the
/// origin (a coarse 2007-era UDP-datagram budget).
const BATCH: f64 = 20.0;

fn build_system(total_entities: usize, selective: usize, seed: u64) -> GridVineSystem {
    let mut sys = GridVineSystem::new(GridVineConfig {
        peers: 64,
        seed,
        ..GridVineConfig::default()
    });
    let p0 = PeerId(0);
    sys.insert_schema(p0, Schema::new("EMBL", ["Organism", "SequenceLength"]))
        .unwrap();
    for i in 0..total_entities {
        let subject = format!("seq:E{i:05}");
        // The first `selective` entities are Aspergillus; the rest are
        // other organisms. Every entity has a length fact, so the
        // unconstrained pattern's extension is the whole corpus.
        let organism = if i < selective {
            format!("Aspergillus strain {i}")
        } else {
            format!("Escherichia coli K-{i}")
        };
        sys.insert_triple(
            p0,
            Triple::new(subject.as_str(), "EMBL#Organism", Term::literal(organism)),
        )
        .unwrap();
        sys.insert_triple(
            p0,
            Triple::new(
                subject.as_str(),
                "EMBL#SequenceLength",
                Term::literal(format!("{}", 400 + (i * 37) % 3000)),
            ),
        )
        .unwrap();
    }
    sys
}

fn query() -> ConjunctiveQuery {
    ConjunctiveQuery::new(
        vec!["x".into(), "len".into()],
        vec![
            TriplePattern::new(
                PatternTerm::var("x"),
                PatternTerm::constant(Term::uri("EMBL#Organism")),
                PatternTerm::constant(Term::literal("%Aspergillus%")),
            ),
            TriplePattern::new(
                PatternTerm::var("x"),
                PatternTerm::constant(Term::uri("EMBL#SequenceLength")),
                PatternTerm::var("len"),
            ),
        ],
    )
    .expect("valid query")
}

/// One line of either table: both modes on a fresh system.
fn compare(total: usize, selective: usize, seed: u64) -> Vec<String> {
    let mut sys = build_system(total, selective, seed);
    let plan = QueryPlan::conjunctive(query());
    let mut run = |mode: JoinMode| {
        let options = QueryOptions::new()
            .strategy(Strategy::Iterative)
            .join_mode(mode);
        sys.execute(PeerId(1), &plan, &options)
            .expect("both modes resolve")
    };
    let ind = run(JoinMode::Independent);
    let bnd = run(JoinMode::BoundSubstitution);
    assert_eq!(ind.rows, bnd.rows, "modes must agree");
    assert_eq!(ind.stats.bindings_carried, 0, "no column, nothing carried");
    let cost = |s: &gridvine_core::ExecStats| {
        s.messages as f64 + (s.bindings_shipped + s.bindings_carried) as f64 / BATCH
    };
    let (ic, bc) = (cost(&ind.stats), cost(&bnd.stats));
    vec![
        format!("{total}"),
        format!("{selective}"),
        format!("{}", ind.rows.len()),
        format!("{}", ind.stats.messages),
        format!("{}", ind.stats.bindings_shipped),
        f(ic, 1),
        format!("{}", bnd.stats.messages),
        format!("{}", bnd.stats.bindings_shipped),
        format!("{}", bnd.stats.bindings_carried),
        f(bc, 1),
        if ic <= bc { "independent" } else { "bound" }.to_string(),
    ]
}

fn main() {
    let mut args = Args::from_env("exp_a4_join_mode [selective_matches] [seed]");
    let selective: usize = args.or(8);
    let seed: u64 = args.or(1);
    args.done();
    const CORPORA: [usize; 4] = [50, 200, 800, 3200];
    const LARGEST: usize = CORPORA[CORPORA.len() - 1];
    let columns = [
        "entities",
        "selective",
        "rows",
        "ind msgs",
        "ind shipped",
        "ind cost",
        "bnd msgs",
        "bnd shipped",
        "bnd carried",
        "bnd cost",
        "winner",
    ];

    println!(
        "A4: join-policy ablation — {selective} selective matches, growing corpus \
         (cost model: messages + (shipped + carried)/{BATCH})"
    );
    let mut table = Table::new(&columns);
    for total in CORPORA {
        table.row(&compare(total, selective, seed));
    }
    println!("{}", table.render());
    println!(
        "shape check: independent's shipped bindings grow with the corpus; \
         bound's stay near the join result size, at an independent sweep's messages."
    );

    println!("\nA4: {LARGEST} entities, growing selective side");
    let mut table = Table::new(&columns);
    for selective in [8, 80, 800, LARGEST] {
        table.row(&compare(LARGEST, selective, seed));
    }
    println!("{}", table.render());
    println!(
        "shape check: bound's messages stay flat while what its requests carry and its \
         replies ship grows with the selective side, past independent's shipped extension."
    );
}
