//! The bioinformatics domain vocabulary.
//!
//! The demonstration (§4) exports "structured data from a public
//! repository of the European Bioinformatics Institute … 50 distinct
//! schemas, all related to protein and nucleotide sequences". We cannot
//! ship EBI data, so this module fixes the *shape* of that corpus: a set
//! of domain **concepts** (organism, sequence, accession, …), each with
//! the attribute-name variants real databases use (EMBL says `Organism`,
//! EMP says `SystematicName`, SwissProt says `OS`-style `SourceOrganism`,
//! …). Generated schemas draw one variant per concept, which gives the
//! lexical matcher realistic near-miss names and gives us exact ground
//! truth (two attributes correspond iff they share a concept).

/// A semantic concept of the protein/nucleotide-sequence domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConceptId(pub usize);

/// One concept with its name variants across databases.
#[derive(Debug, Clone)]
pub struct Concept {
    pub id: ConceptId,
    /// Canonical name, for reporting.
    pub name: &'static str,
    /// Attribute-name variants databases use for this concept.
    pub variants: &'static [&'static str],
    /// Whether values are drawn from a small categorical pool (true) or
    /// are entity-specific (false). Categorical concepts make good query
    /// constraints (`%Aspergillus%`).
    pub categorical: bool,
}

/// The full concept inventory (16 concepts, ≥ 4 variants each).
pub const CONCEPTS: &[Concept] = &[
    Concept {
        id: ConceptId(0),
        name: "organism",
        variants: &[
            "Organism",
            "SystematicName",
            "Species",
            "SourceOrganism",
            "OrganismName",
            "Taxon",
        ],
        categorical: true,
    },
    Concept {
        id: ConceptId(1),
        name: "accession",
        variants: &[
            "Accession",
            "AccessionNumber",
            "EntryId",
            "PrimaryAccession",
            "AcNumber",
        ],
        categorical: false,
    },
    Concept {
        id: ConceptId(2),
        name: "sequence",
        variants: &[
            "Sequence",
            "SeqData",
            "Residues",
            "SequenceData",
            "PrimarySequence",
        ],
        categorical: false,
    },
    Concept {
        id: ConceptId(3),
        name: "length",
        variants: &[
            "Length",
            "SeqLength",
            "SequenceLength",
            "Size",
            "ResidueCount",
        ],
        categorical: false,
    },
    Concept {
        id: ConceptId(4),
        name: "description",
        variants: &[
            "Description",
            "Definition",
            "Title",
            "EntryDescription",
            "De",
        ],
        categorical: false,
    },
    Concept {
        id: ConceptId(5),
        name: "gene",
        variants: &["Gene", "GeneName", "Locus", "GeneSymbol", "OrfName"],
        categorical: false,
    },
    Concept {
        id: ConceptId(6),
        name: "keywords",
        variants: &["Keywords", "KeywordList", "Tags", "Kw"],
        categorical: true,
    },
    Concept {
        id: ConceptId(7),
        name: "molecule_type",
        variants: &["MoleculeType", "MolType", "Moltype", "BioMoleculeKind"],
        categorical: true,
    },
    Concept {
        id: ConceptId(8),
        name: "taxonomy",
        variants: &[
            "Taxonomy",
            "TaxonomicLineage",
            "Lineage",
            "TaxClassification",
            "OrganismClassification",
        ],
        categorical: true,
    },
    Concept {
        id: ConceptId(9),
        name: "created",
        variants: &["Created", "CreationDate", "DateCreated", "FirstPublic"],
        categorical: false,
    },
    Concept {
        id: ConceptId(10),
        name: "modified",
        variants: &[
            "Modified",
            "LastUpdated",
            "UpdateDate",
            "LastAnnotationUpdate",
        ],
        categorical: false,
    },
    Concept {
        id: ConceptId(11),
        name: "reference",
        variants: &["Reference", "Citation", "PubmedRef", "LiteratureReference"],
        categorical: false,
    },
    Concept {
        id: ConceptId(12),
        name: "function",
        variants: &[
            "Function",
            "MolecularFunction",
            "Activity",
            "FunctionComment",
        ],
        categorical: true,
    },
    Concept {
        id: ConceptId(13),
        name: "mass",
        variants: &["Mass", "MolecularWeight", "Mw", "MolWeight"],
        categorical: false,
    },
    Concept {
        id: ConceptId(14),
        name: "features",
        variants: &["Features", "FeatureTable", "Ft", "SequenceFeatures"],
        categorical: false,
    },
    Concept {
        id: ConceptId(15),
        name: "database",
        variants: &["Database", "SourceDb", "DataSource", "OriginDatabase"],
        categorical: true,
    },
];

/// Database-style schema names. The first few are the real databases the
/// paper's demo federates; the rest keep 50 schemas realistic.
pub const SCHEMA_NAMES: &[&str] = &[
    "EMBL",
    "EMP",
    "SwissProt",
    "TrEMBL",
    "GenBank",
    "PIR",
    "PDB",
    "Prosite",
    "InterPro",
    "Pfam",
    "UniParc",
    "RefSeq",
    "DDBJ",
    "EPD",
    "Ensembl",
    "FlyBase",
    "SGD",
    "MGD",
    "WormBase",
    "TAIR",
    "ZFIN",
    "EcoCyc",
    "KEGG",
    "BRENDA",
    "CATH",
    "SCOP",
    "ProDom",
    "PRINTS",
    "Blocks",
    "TIGRFAMs",
    "SMART",
    "HAMAP",
    "PIRSF",
    "SUPERFAMILY",
    "Gene3D",
    "PANTHER",
    "PhosSite",
    "GlycoDB",
    "EnzymeDB",
    "PathwayDB",
    "StructDB",
    "MotifDB",
    "DomainDB",
    "VariantDB",
    "ExpressDB",
    "InteractDB",
    "LocalisDB",
    "HomologDB",
    "OrthoDB",
    "ParaDB",
    "CrossRefDB",
    "AnnotDB",
    "CurateDB",
    "ArchiveDB",
];

/// Organism names for categorical values; Aspergillus species first so
/// the paper's `%Aspergillus%` query has answers.
pub const ORGANISMS: &[&str] = &[
    "Aspergillus niger",
    "Aspergillus nidulans",
    "Aspergillus fumigatus",
    "Aspergillus oryzae",
    "Saccharomyces cerevisiae",
    "Escherichia coli",
    "Homo sapiens",
    "Mus musculus",
    "Drosophila melanogaster",
    "Caenorhabditis elegans",
    "Arabidopsis thaliana",
    "Bacillus subtilis",
    "Schizosaccharomyces pombe",
    "Candida albicans",
    "Neurospora crassa",
    "Penicillium chrysogenum",
    "Rattus norvegicus",
    "Danio rerio",
    "Oryza sativa",
    "Zea mays",
    "Xenopus laevis",
    "Gallus gallus",
    "Plasmodium falciparum",
    "Mycobacterium tuberculosis",
    "Streptomyces coelicolor",
    "Thermus aquaticus",
    "Pyrococcus furiosus",
    "Haloferax volcanii",
    "Synechocystis sp.",
    "Dictyostelium discoideum",
];

/// Value pools for the other categorical concepts.
const KEYWORD_POOL: &[&str] = &[
    "hydrolase",
    "transferase",
    "oxidoreductase",
    "kinase",
    "membrane",
    "secreted",
    "glycoprotein",
    "zinc-finger",
    "dna-binding",
    "atp-binding",
    "signal-peptide",
    "transmembrane",
    "phosphoprotein",
    "repeat",
    "isomerase",
];

const MOLECULE_TYPES: &[&str] = &["protein", "mRNA", "genomic DNA", "rRNA", "tRNA", "cDNA"];

const FUNCTIONS: &[&str] = &[
    "catalysis",
    "transport",
    "signaling",
    "structural",
    "regulation",
    "binding",
    "storage",
    "defense",
    "motility",
    "replication",
];

const DATABASES: &[&str] = &["EBI", "NCBI", "DDBJ-Center", "ExPASy", "Sanger"];

/// The categorical value pool for a concept, if it has one.
pub fn value_pool(concept: ConceptId) -> Option<&'static [&'static str]> {
    match concept.0 {
        0 => Some(ORGANISMS),
        6 => Some(KEYWORD_POOL),
        7 => Some(MOLECULE_TYPES),
        8 => Some(ORGANISMS), // lineage strings reuse organism roots
        12 => Some(FUNCTIONS),
        15 => Some(DATABASES),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn concepts_have_unique_ids_and_enough_variants() {
        let ids: BTreeSet<usize> = CONCEPTS.iter().map(|c| c.id.0).collect();
        assert_eq!(ids.len(), CONCEPTS.len());
        for c in CONCEPTS {
            assert!(c.variants.len() >= 4, "{} has too few variants", c.name);
        }
    }

    #[test]
    fn variant_names_are_globally_unique() {
        // A variant name appearing under two concepts would make ground
        // truth ambiguous.
        let mut seen = BTreeSet::new();
        for c in CONCEPTS {
            for v in c.variants {
                assert!(seen.insert(*v), "duplicate variant {v}");
            }
        }
    }

    #[test]
    fn fifty_schema_names_available() {
        assert!(SCHEMA_NAMES.len() >= 50);
        let unique: BTreeSet<&str> = SCHEMA_NAMES.iter().copied().collect();
        assert_eq!(unique.len(), SCHEMA_NAMES.len());
    }

    #[test]
    fn categorical_concepts_have_pools() {
        for c in CONCEPTS {
            if c.categorical {
                assert!(value_pool(c.id).is_some(), "{} lacks a pool", c.name);
            }
        }
    }

    #[test]
    fn aspergillus_species_lead_the_organism_pool() {
        assert!(ORGANISMS[0].contains("Aspergillus"));
        assert!(
            ORGANISMS
                .iter()
                .filter(|o| o.contains("Aspergillus"))
                .count()
                >= 3
        );
    }
}
