//! Distributed conjunctive queries over the federation (§2.3).
//!
//! "Conjunctive queries can be resolved in a similar manner, by
//! iteratively resolving each triple pattern contained in the query and
//! aggregating the sets of results retrieved."
//!
//! This example builds a three-schema bioinformatics federation, parses
//! an RDQL conjunction, and resolves it under both aggregation policies
//! — independent per-pattern sweeps vs. bound substitution — showing
//! that they return the same rows at different network costs, and that
//! the join crosses schema mappings on every pattern. It then consumes
//! the same join *incrementally* through a pull-based session, and uses
//! `limit(1)` to stop the dissemination after the first solution row —
//! strictly fewer messages on the wire. Last, it times each policy on
//! the simulated clock, serial and with four requests in flight.
//!
//! Run with: `cargo run --example conjunctive_join`

use gridvine_core::{
    GridVineConfig, GridVineSystem, JoinMode, QueryOptions, QueryPlan, ResultEvent, Strategy,
};
use gridvine_pgrid::PeerId;
use gridvine_rdf::{parse_query, Term, Triple};
use gridvine_semantic::{Correspondence, MappingKind, Provenance, Schema};

fn main() {
    let mut gridvine = federation();

    // One conjunctive RDQL query in the EMBL vocabulary: Aspergillus
    // sequences *and* their lengths.
    let q = parse_query(
        r#"SELECT ?x, ?len WHERE (?x, <EMBL#Organism>, "%Aspergillus%"),
                                 (?x, <EMBL#SequenceLength>, ?len)"#,
    )
    .expect("well-formed RDQL");
    println!("query: {q}\n");

    let plan = QueryPlan::conjunctive(q);
    let mut reference: Option<Vec<String>> = None;
    for mode in [JoinMode::Independent, JoinMode::BoundSubstitution] {
        let out = gridvine
            .execute(
                PeerId(42),
                &plan,
                &QueryOptions::new()
                    .strategy(Strategy::Iterative)
                    .join_mode(mode),
            )
            .expect("resolvable query");
        println!("{mode:?}:");
        for b in &out.rows {
            println!("  {b}");
        }
        println!(
            "  ({} rows, {} overlay messages, {} subqueries, {} reformulations)\n",
            out.rows.len(),
            out.stats.messages,
            out.stats.subqueries,
            out.stats.reformulations
        );

        let rows: Vec<String> = out.rows.iter().map(|b| b.to_string()).collect();
        assert_eq!(rows.len(), 3, "one Aspergillus join row per vocabulary");
        assert!(rows
            .iter()
            .any(|r| r.contains("A78712") && r.contains("1042")));
        assert!(rows
            .iter()
            .any(|r| r.contains("NEN94295") && r.contains("2210")));
        assert!(rows.iter().any(|r| r.contains("1AGX") && r.contains("512")));
        match &reference {
            None => reference = Some(rows),
            Some(prev) => assert_eq!(prev, &rows, "modes must agree"),
        }
    }

    println!(
        "Both policies found all three Aspergillus records — including the \
         EMP and PDB ones, reached purely through the mapping chain.\n"
    );

    // Incremental consumption: pull the same plan through a session.
    // Bound-substitution rows complete one reply of the last pattern's
    // sweep at a time, so the consumer sees solution rows as they
    // materialize (and the Stats deltas show where the messages go).
    let options = QueryOptions::new()
        .strategy(Strategy::Iterative)
        .join_mode(JoinMode::BoundSubstitution);
    let mut session = gridvine
        .open(PeerId(42), &plan, &options)
        .expect("plan opens");
    let mut batches = 0;
    while let Some(event) = session.next_event().expect("join advances") {
        match event {
            ResultEvent::Rows(batch) => {
                batches += 1;
                for row in session.decode(&batch) {
                    println!("streamed: {row}");
                }
            }
            ResultEvent::Stats(_) | ResultEvent::SchemaHop { .. } => {}
        }
    }
    let streamed = session.into_outcome();
    assert_eq!(streamed.rows.len(), 3);
    assert!(batches > 1, "rows arrived across multiple batches");

    // Early termination: cap the session at one row. The remaining
    // requests of the last pattern's sweep are never sent, so the
    // limited run sends strictly fewer messages than the full one.
    let first_only = gridvine
        .execute(PeerId(42), &plan, &options.limit(1))
        .expect("resolvable query");
    assert_eq!(first_only.rows.len(), 1);
    assert!(first_only.stats.messages < streamed.stats.messages);
    println!(
        "\nlimit(1): {} messages vs {} for the full join — the remaining \
         subqueries were never sent.",
        first_only.stats.messages, streamed.stats.messages
    );

    // The session runs on a simulated clock, one unit per request or
    // mapping discovery, join patterns included: with window(4) up to
    // four fly at once — same rows, same messages, less simulated time
    // wherever requests are ready together. Each run starts from a
    // fresh, cold federation. The mappings form a chain, so each hop of
    // a walk waits for the list its predecessor's reply brings: only
    // the independent join, whose two sweeps start together, overlaps.
    println!();
    for mode in [JoinMode::Independent, JoinMode::BoundSubstitution] {
        let timed = |w: usize| {
            let mut cold = federation();
            let options = QueryOptions::new()
                .strategy(Strategy::Iterative)
                .join_mode(mode)
                .window(w);
            let mut session = cold.open(PeerId(42), &plan, &options).expect("plan opens");
            while session.next_event().expect("join advances").is_some() {}
            let elapsed = session.sim_elapsed();
            (session.into_outcome(), elapsed)
        };
        let (serial, serial_t) = timed(1);
        let (overlapped, overlapped_t) = timed(4);
        assert_eq!(serial.rows, overlapped.rows);
        assert_eq!(serial.stats.messages, overlapped.stats.messages);
        assert!(overlapped_t <= serial_t);
        println!(
            "{mode:?} scheduler: window 1 drains in {serial_t} (max {} in flight); \
             window 4 in {overlapped_t} (max {} in flight)",
            serial.stats.max_in_flight, overlapped.stats.max_in_flight,
        );
    }
}

/// The three-schema federation on 64 peers, mappings and records in.
fn federation() -> GridVineSystem {
    let mut gridvine = GridVineSystem::new(GridVineConfig {
        peers: 64,
        ..GridVineConfig::default()
    });
    let peer = PeerId(0);

    // Three labs export overlapping nucleotide data under their own
    // schemas; manual mappings chain them: EMBL ↔ EMP ↔ PDB.
    for (schema, attrs) in [
        ("EMBL", vec!["Organism", "SequenceLength"]),
        ("EMP", vec!["SystematicName", "Length"]),
        ("PDB", vec!["Species", "ResidueCount"]),
    ] {
        gridvine
            .insert_schema(peer, Schema::new(schema, attrs))
            .unwrap();
    }
    gridvine
        .insert_mapping(
            peer,
            "EMBL",
            "EMP",
            MappingKind::Equivalence,
            Provenance::Manual,
            vec![
                Correspondence::new("Organism", "SystematicName"),
                Correspondence::new("SequenceLength", "Length"),
            ],
        )
        .unwrap();
    gridvine
        .insert_mapping(
            peer,
            "EMP",
            "PDB",
            MappingKind::Equivalence,
            Provenance::Manual,
            vec![
                Correspondence::new("SystematicName", "Species"),
                Correspondence::new("Length", "ResidueCount"),
            ],
        )
        .unwrap();

    // Records: each lab knows organism + length facts for its own
    // accessions only. One Aspergillus record per vocabulary.
    for (s, p, o) in [
        ("seq:A78712", "EMBL#Organism", "Aspergillus niger"),
        ("seq:A78712", "EMBL#SequenceLength", "1042"),
        ("seq:A90001", "EMBL#Organism", "Homo sapiens"),
        ("seq:A90001", "EMBL#SequenceLength", "880"),
        ("seq:NEN94295", "EMP#SystematicName", "Aspergillus oryzae"),
        ("seq:NEN94295", "EMP#Length", "2210"),
        ("seq:1AGX", "PDB#Species", "Aspergillus awamori"),
        ("seq:1AGX", "PDB#ResidueCount", "512"),
        ("seq:4HHB", "PDB#Species", "Homo sapiens"),
        ("seq:4HHB", "PDB#ResidueCount", "141"),
    ] {
        gridvine
            .insert_triple(peer, Triple::new(s, p, Term::literal(o)))
            .unwrap();
    }

    gridvine
}
