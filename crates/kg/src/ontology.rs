//! The LiDS ontology (Section 2.1).
//!
//! "The LiDS ontology conceptualizes the data, pipeline, and library
//! entities … specified in OWL 2 and has 13 classes, 19 object properties,
//! and 22 data properties." Classes and properties use the
//! `http://kglids.org/ontology/` namespace, resources use
//! `http://kglids.org/resource/`.

use lids_rdf::Term;

/// Ontology namespace prefix.
pub const ONT: &str = "http://kglids.org/ontology/";
/// Resource (instance) namespace prefix.
pub const RES: &str = "http://kglids.org/resource/";
/// RDF namespace `type` property.
pub const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
/// RDFS label property.
pub const RDFS_LABEL: &str = "http://www.w3.org/2000/01/rdf-schema#label";

/// The 13 LiDS classes.
pub mod class {
    /// Build the full IRI of a class name.
    pub fn iri(name: &str) -> String {
        format!("{}{name}", super::ONT)
    }

    pub const DATASET: &str = "Dataset";
    pub const TABLE: &str = "Table";
    pub const COLUMN: &str = "Column";
    pub const SOURCE: &str = "Source";
    pub const PIPELINE: &str = "Pipeline";
    pub const STATEMENT: &str = "Statement";
    pub const LIBRARY: &str = "Library";
    pub const LIBRARY_PACKAGE: &str = "LibraryPackage";
    pub const LIBRARY_CLASS: &str = "LibraryClass";
    pub const LIBRARY_FUNCTION: &str = "LibraryFunction";
    pub const MODEL: &str = "Model";
    pub const OPERATION: &str = "Operation";
    pub const USER: &str = "User";

    /// All class names (13, as the paper states).
    pub const ALL: [&str; 13] = [
        DATASET,
        TABLE,
        COLUMN,
        SOURCE,
        PIPELINE,
        STATEMENT,
        LIBRARY,
        LIBRARY_PACKAGE,
        LIBRARY_CLASS,
        LIBRARY_FUNCTION,
        MODEL,
        OPERATION,
        USER,
    ];
}

/// The 19 LiDS object properties.
pub mod object_prop {
    pub fn iri(name: &str) -> String {
        format!("{}{name}", super::ONT)
    }

    pub const IS_PART_OF: &str = "isPartOf";
    pub const HAS_TABLE: &str = "hasTable";
    pub const HAS_COLUMN: &str = "hasColumn";
    pub const NEXT_STATEMENT: &str = "nextStatement";
    pub const HAS_DATA_FLOW_TO: &str = "hasDataFlowTo";
    pub const CALLS_FUNCTION: &str = "callsFunction";
    pub const CALLS_LIBRARY: &str = "callsLibrary";
    pub const CALLS_CLASS: &str = "callsClass";
    pub const READS_TABLE: &str = "readsTable";
    pub const READS_COLUMN: &str = "readsColumn";
    pub const HAS_CONTENT_SIMILARITY: &str = "hasContentSimilarity";
    pub const HAS_LABEL_SIMILARITY: &str = "hasLabelSimilarity";
    pub const HAS_SEMANTIC_SIMILARITY: &str = "hasSemanticSimilarity";
    pub const IS_WRITTEN_BY: &str = "isWrittenBy";
    pub const ABOUT_DATASET: &str = "aboutDataset";
    pub const APPLIES_OPERATION: &str = "appliesOperation";
    pub const TRAINED_ON: &str = "trainedOn";
    pub const USES_LIBRARY: &str = "usesLibrary";
    pub const PREDICTED_READ: &str = "predictedRead";

    /// All object property names (19, as the paper states).
    pub const ALL: [&str; 19] = [
        IS_PART_OF,
        HAS_TABLE,
        HAS_COLUMN,
        NEXT_STATEMENT,
        HAS_DATA_FLOW_TO,
        CALLS_FUNCTION,
        CALLS_LIBRARY,
        CALLS_CLASS,
        READS_TABLE,
        READS_COLUMN,
        HAS_CONTENT_SIMILARITY,
        HAS_LABEL_SIMILARITY,
        HAS_SEMANTIC_SIMILARITY,
        IS_WRITTEN_BY,
        ABOUT_DATASET,
        APPLIES_OPERATION,
        TRAINED_ON,
        USES_LIBRARY,
        PREDICTED_READ,
    ];
}

/// The 22 LiDS data properties.
pub mod data_prop {
    pub fn iri(name: &str) -> String {
        format!("{}{name}", super::ONT)
    }

    pub const HAS_NAME: &str = "hasName";
    pub const HAS_TEXT: &str = "hasText";
    pub const HAS_CONTROL_FLOW: &str = "hasControlFlow";
    pub const HAS_PARAMETER: &str = "hasParameter";
    pub const HAS_LINE: &str = "hasLine";
    pub const HAS_DATA_TYPE: &str = "hasDataType";
    pub const HAS_TOTAL_VALUE_COUNT: &str = "hasTotalValueCount";
    pub const HAS_MISSING_VALUE_COUNT: &str = "hasMissingValueCount";
    pub const HAS_DISTINCT_VALUE_COUNT: &str = "hasDistinctValueCount";
    pub const HAS_MIN_VALUE: &str = "hasMinValue";
    pub const HAS_MAX_VALUE: &str = "hasMaxValue";
    pub const HAS_MEAN_VALUE: &str = "hasMeanValue";
    pub const HAS_STD_DEV: &str = "hasStdDev";
    pub const HAS_TRUE_RATIO: &str = "hasTrueRatio";
    pub const HAS_AVG_LENGTH: &str = "hasAvgLength";
    pub const WITH_CERTAINTY: &str = "withCertainty";
    pub const HAS_VOTES: &str = "hasVotes";
    pub const HAS_SCORE: &str = "hasScore";
    pub const HAS_TITLE: &str = "hasTitle";
    pub const HAS_AUTHOR: &str = "hasAuthor";
    pub const HAS_ROW_COUNT: &str = "hasRowCount";
    pub const HAS_SOURCE_PATH: &str = "hasSourcePath";

    /// All data property names (22, as the paper states).
    pub const ALL: [&str; 22] = [
        HAS_NAME,
        HAS_TEXT,
        HAS_CONTROL_FLOW,
        HAS_PARAMETER,
        HAS_LINE,
        HAS_DATA_TYPE,
        HAS_TOTAL_VALUE_COUNT,
        HAS_MISSING_VALUE_COUNT,
        HAS_DISTINCT_VALUE_COUNT,
        HAS_MIN_VALUE,
        HAS_MAX_VALUE,
        HAS_MEAN_VALUE,
        HAS_STD_DEV,
        HAS_TRUE_RATIO,
        HAS_AVG_LENGTH,
        WITH_CERTAINTY,
        HAS_VOTES,
        HAS_SCORE,
        HAS_TITLE,
        HAS_AUTHOR,
        HAS_ROW_COUNT,
        HAS_SOURCE_PATH,
    ];
}

/// Percent-encode a path segment for use in a resource IRI.
pub fn encode_segment(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            'a'..='z' | 'A'..='Z' | '0'..='9' | '-' | '_' | '.' => out.push(c),
            other => {
                let mut buf = [0u8; 4];
                for b in other.encode_utf8(&mut buf).as_bytes() {
                    out.push_str(&format!("%{b:02X}"));
                }
            }
        }
    }
    out
}

/// The name an [`encode_segment`] output stands for:
/// `decode_segment(&encode_segment(s)) == s` for every `s`. A `%` that is
/// not followed by two hex digits stays as it is.
pub fn decode_segment(s: &str) -> String {
    if !s.contains('%') {
        return s.to_string();
    }
    let mut out = Vec::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let escaped = match bytes.get(i + 1..i + 3) {
            Some(hex) if bytes[i] == b'%' && hex.iter().all(u8::is_ascii_hexdigit) => {
                std::str::from_utf8(hex).ok().and_then(|h| u8::from_str_radix(h, 16).ok())
            }
            _ => None,
        };
        match escaped {
            Some(b) => {
                out.push(b);
                i += 3;
            }
            None => {
                out.push(bytes[i]);
                i += 1;
            }
        }
    }
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// Resource IRI builders for the LiDS graph.
pub mod res {
    use super::{encode_segment, RES};

    /// `res/<dataset>`
    pub fn dataset(dataset: &str) -> String {
        format!("{RES}{}", encode_segment(dataset))
    }

    /// `res/<dataset>/<table>`
    pub fn table(dataset: &str, table: &str) -> String {
        format!("{}/{}", self::dataset(dataset), encode_segment(table))
    }

    /// `res/<dataset>/<table>/<column>`
    pub fn column(dataset: &str, table: &str, column: &str) -> String {
        format!("{}/{}", self::table(dataset, table), encode_segment(column))
    }

    /// `res/library/<dotted path with / separators>`
    pub fn library(path: &str) -> String {
        let parts: Vec<String> = path.split('.').map(encode_segment).collect();
        format!("{RES}library/{}", parts.join("/"))
    }

    /// `res/<dataset>/pipelines/<id>` — also the pipeline's named graph IRI.
    pub fn pipeline(dataset: &str, id: &str) -> String {
        format!("{}/pipelines/{}", self::dataset(dataset), encode_segment(id))
    }

    /// `<pipeline>/s<index>`
    pub fn statement(pipeline_iri: &str, index: usize) -> String {
        format!("{pipeline_iri}/s{index}")
    }
}

/// `rdf:type` triple helper terms.
pub fn a(class_name: &str) -> (Term, Term) {
    (Term::iri(RDF_TYPE), Term::iri(class::iri(class_name)))
}

/// Pre-built ontology terms for batch quad emission.
///
/// The IRI builders in [`class`]/[`object_prop`]/[`data_prop`] `format!` a
/// fresh string per call, so emitters producing millions of quads pay an
/// allocation-plus-formatting round per predicate. A `Vocab` materializes
/// every ontology term once up front; emitters clone the finished term
/// (one memcpy-style allocation, no formatting), and the store's one
/// dictionary probe per term finds the repeats without re-interning.
#[derive(Debug)]
pub struct Vocab {
    /// `rdf:type`.
    pub rdf_type: Term,
    /// `rdfs:label`.
    pub rdfs_label: Term,
    classes: std::collections::HashMap<&'static str, Term>,
    object_props: std::collections::HashMap<&'static str, Term>,
    data_props: std::collections::HashMap<&'static str, Term>,
}

impl Vocab {
    pub fn new() -> Self {
        Vocab {
            rdf_type: Term::iri(RDF_TYPE),
            rdfs_label: Term::iri(RDFS_LABEL),
            classes: class::ALL.iter().map(|n| (*n, Term::iri(class::iri(n)))).collect(),
            object_props: object_prop::ALL
                .iter()
                .map(|n| (*n, Term::iri(object_prop::iri(n))))
                .collect(),
            data_props: data_prop::ALL
                .iter()
                .map(|n| (*n, Term::iri(data_prop::iri(n))))
                .collect(),
        }
    }

    /// Class term, e.g. `Vocab::new().class(class::COLUMN)`.
    pub fn class(&self, name: &str) -> Term {
        self.classes
            .get(name)
            .cloned()
            .unwrap_or_else(|| Term::iri(class::iri(name)))
    }

    /// Object property term.
    pub fn obj(&self, name: &str) -> Term {
        self.object_props
            .get(name)
            .cloned()
            .unwrap_or_else(|| Term::iri(object_prop::iri(name)))
    }

    /// Data property term.
    pub fn data(&self, name: &str) -> Term {
        self.data_props
            .get(name)
            .cloned()
            .unwrap_or_else(|| Term::iri(data_prop::iri(name)))
    }

    /// `rdf:type` pair from pre-built terms (the [`a`] helper, allocation-light).
    pub fn a(&self, class_name: &str) -> (Term, Term) {
        (self.rdf_type.clone(), self.class(class_name))
    }
}

impl Default for Vocab {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ontology_cardinalities_match_paper() {
        assert_eq!(class::ALL.len(), 13);
        assert_eq!(object_prop::ALL.len(), 19);
        assert_eq!(data_prop::ALL.len(), 22);
    }

    #[test]
    fn no_duplicate_names() {
        let mut all: Vec<&str> = Vec::new();
        all.extend(class::ALL);
        all.extend(object_prop::ALL);
        all.extend(data_prop::ALL);
        let unique: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len());
    }

    #[test]
    fn iri_builders() {
        assert_eq!(
            res::column("titanic", "train", "Age"),
            "http://kglids.org/resource/titanic/train/Age"
        );
        assert_eq!(
            res::library("pandas.read_csv"),
            "http://kglids.org/resource/library/pandas/read_csv"
        );
        assert!(res::pipeline("titanic", "p1").ends_with("titanic/pipelines/p1"));
        assert!(res::statement("http://p", 3).ends_with("/s3"));
    }

    #[test]
    fn vocab_terms_match_iri_builders() {
        let v = Vocab::new();
        assert_eq!(v.rdf_type, Term::iri(RDF_TYPE));
        for name in class::ALL {
            assert_eq!(v.class(name), Term::iri(class::iri(name)));
        }
        for name in object_prop::ALL {
            assert_eq!(v.obj(name), Term::iri(object_prop::iri(name)));
        }
        for name in data_prop::ALL {
            assert_eq!(v.data(name), Term::iri(data_prop::iri(name)));
        }
        // unknown names fall back to formatting, staying total
        assert_eq!(v.class("NotAClass"), Term::iri(class::iri("NotAClass")));
    }

    #[test]
    fn segment_encoding() {
        assert_eq!(encode_segment("a b/c"), "a%20b%2Fc");
        assert_eq!(encode_segment("Age_1.csv"), "Age_1.csv");
        assert_eq!(decode_segment("a%20b%2Fc"), "a b/c");
        // a stray or short escape is text, not an error
        assert_eq!(decode_segment("100%"), "100%");
        assert_eq!(decode_segment("%zz%4"), "%zz%4");
        assert_eq!(decode_segment("%+1"), "%+1");
    }

    proptest::proptest! {
        #[test]
        fn prop_decode_inverts_encode(s in "\\PC{0,16}") {
            proptest::prop_assert_eq!(decode_segment(&encode_segment(&s)), s);
        }
    }
}
