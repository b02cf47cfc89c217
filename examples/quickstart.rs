//! Quickstart: a five-minute tour of the GridVine PDMS.
//!
//! Builds a 32-peer network, shares two heterogeneous schemas plus a
//! mapping between them, inserts data, and runs the paper's
//! `%Aspergillus%` query with reformulation — incrementally, through a
//! pull-based [`gridvine_core::QuerySession`], watching results arrive
//! schema hop by schema hop.
//!
//! Run with: `cargo run --example quickstart`

use gridvine_core::{
    GridVineConfig, GridVineSystem, QueryOptions, QueryPlan, ResultEvent, Strategy,
};
use gridvine_pgrid::PeerId;
use gridvine_rdf::{parse_single, Term, Triple};
use gridvine_semantic::{BayesConfig, Correspondence, MappingKind, Provenance, Schema};

fn main() {
    // 1. A GridVine network of 32 peers over a balanced P-Grid overlay.
    let mut gridvine = GridVineSystem::new(GridVineConfig {
        peers: 32,
        ..GridVineConfig::default()
    });
    let publisher = PeerId(0);

    // 2. Two labs publish their own schemas — no global schema needed.
    gridvine
        .insert_schema(
            publisher,
            Schema::new("EMBL", ["Organism", "SequenceLength"]),
        )
        .expect("schema stored");
    gridvine
        .insert_schema(publisher, Schema::new("EMP", ["SystematicName"]))
        .expect("schema stored");

    // 3. A manual pairwise mapping declares the predicates equivalent.
    gridvine
        .insert_mapping(
            publisher,
            "EMBL",
            "EMP",
            MappingKind::Equivalence,
            Provenance::Manual,
            vec![Correspondence::new("Organism", "SystematicName")],
        )
        .expect("mapping stored");

    // 4. The labs' triples go in with one insert call; every triple is
    //    indexed three times in the DHT (by subject, predicate and
    //    object), and the call's keys travel as one update tree that
    //    sends each peer at most one message.
    let triples = [
        ("seq:A78712", "EMBL#Organism", "Aspergillus niger"),
        ("seq:A78767", "EMBL#Organism", "Aspergillus nidulans"),
        ("seq:A78712", "EMBL#SequenceLength", "1042"),
        (
            "seq:NEN94295-05",
            "EMP#SystematicName",
            "Aspergillus oryzae",
        ),
        ("seq:X00912", "EMP#SystematicName", "Escherichia coli"),
    ]
    .map(|(s, p, o)| Triple::new(s, p, Term::literal(o)));
    let before = gridvine.messages_sent();
    let stored = gridvine
        .insert_triples(publisher, triples)
        .expect("triples stored");
    println!(
        "ingested:  {stored} triples in one insert call, {} overlay messages",
        gridvine.messages_sent() - before
    );

    // 5. Any peer can query in *its* vocabulary; reformulation reaches
    //    the other schema's data automatically. Open a pull-based
    //    session and watch the dissemination happen: each pull advances
    //    the closure walk by one routed subquery and yields events —
    //    results arrive incrementally, per destination schema.
    let query = parse_single(r#"SELECT ?x WHERE (?x, <EMBL#Organism>, "%Aspergillus%")"#)
        .expect("well-formed RDQL");
    println!("query:     {query}");

    let issuer = PeerId(17);
    let plan = QueryPlan::search(query);
    let options = QueryOptions::new().strategy(Strategy::Iterative);
    let mut session = gridvine.open(issuer, &plan, &options).expect("plan opens");
    while let Some(event) = session.next_event().expect("walk advances") {
        match event {
            ResultEvent::SchemaHop {
                schema,
                depth,
                quality,
            } => println!("hop:       {schema} (depth {depth}, path quality {quality:.2})"),
            ResultEvent::Rows(batch) => {
                for row in session.decode(&batch) {
                    println!("result:    {}", row.get("x").expect("bound"));
                }
            }
            ResultEvent::Stats(delta) => {
                println!("           …{} overlay messages", delta.messages)
            }
        }
    }
    let outcome = session.into_outcome();

    println!(
        "schemas:   {} visited (1 reformulation step)",
        outcome.stats.schemas_visited
    );
    println!(
        "messages:  {} overlay messages total",
        outcome.stats.messages
    );
    assert_eq!(outcome.rows.len(), 3, "two EMBL + one EMP record");

    // The blocking form is a drain of the same session — identical
    // rows; and because the mapping network is unchanged, this repeat
    // replays the memoized reformulation closure: no mapping-list
    // fetch past the origin's, strictly fewer messages.
    let drained = gridvine
        .execute(issuer, &plan, &options)
        .expect("search runs");
    assert_eq!(drained.rows, outcome.rows);
    assert!(drained.stats.messages < outcome.stats.messages);
    println!(
        "replay:    {} messages (closure cache, {} cached closure)",
        drained.stats.messages,
        gridvine.cached_closures(),
    );

    // 6. The session runs on a simulated clock: with window(4), up to
    //    four subqueries fly concurrently, and the warm closure replay
    //    pipelines every hop — same rows, same messages, less
    //    simulated time than the serial window(1) drain.
    let timed = |gridvine: &mut GridVineSystem, w: usize| {
        let mut session = gridvine
            .open(issuer, &plan, &options.window(w))
            .expect("plan opens");
        while session.next_event().expect("walk advances").is_some() {}
        let elapsed = session.sim_elapsed();
        (session.into_outcome(), elapsed)
    };
    let (serial, serial_t) = timed(&mut gridvine, 1);
    let (overlapped, overlapped_t) = timed(&mut gridvine, 4);
    assert_eq!(serial.rows, overlapped.rows);
    assert_eq!(serial.stats.messages, overlapped.stats.messages);
    println!(
        "scheduler: window 1 drains in {serial_t} (max {} in flight); \
         window 4 in {overlapped_t} (max {} in flight)",
        serial.stats.max_in_flight, overlapped.stats.max_in_flight,
    );

    // 7. Scheduler + cache counters ride along in every ExecStats.
    let counters = gridvine.cache_counters();
    println!(
        "counters:  closure cache {} hits / {} misses / {} evictions; \
         last run fetched {} mapping lists",
        counters.hits, counters.misses, counters.evictions, overlapped.stats.mapping_fetches,
    );
    // 8. The mediation layer defends itself. A wrong — but well-typed —
    //    mapping slips into the registry; a Bayesian assessment pass
    //    probes the mapping cycle it closes, finds the composition
    //    inconsistent, and deprecates it. The probes are charged as
    //    real overlay traffic in the same ExecStats as any query.
    let wrong = gridvine
        .insert_mapping(
            publisher,
            "EMP",
            "EMBL",
            MappingKind::Equivalence,
            Provenance::Automatic,
            vec![Correspondence::new("SystematicName", "SequenceLength")],
        )
        .expect("mapping stored");
    let report = gridvine
        .assessment_pass(issuer, &BayesConfig::default())
        .expect("assessment runs");
    assert_eq!(report.deprecated, vec![wrong], "the bad copy is caught");
    println!(
        "assessed:  {} cycle probes charged as {} overlay messages; \
         {} mapping deprecated in {}",
        report.stats.assessment_probes,
        report.stats.messages,
        report.deprecated.len(),
        report.elapsed,
    );

    println!("\nthe EMP record was found although the query was written against EMBL.");
}
