//! Fine-grained data type inference (Section 3.2, Algorithm 2 line 6).

use lids_embed::features::parse_date_parts;
use lids_embed::{FineGrainedType, WordEmbeddings};

use crate::ner::recognize_entity;
use crate::table::{is_null, Column};

/// Fraction of (sampled) non-null values that must parse for a parse-based
/// type to win.
const PARSE_THRESHOLD: f64 = 0.9;
/// Fraction of values that must be recognised entities.
const NER_THRESHOLD: f64 = 0.6;
/// Fraction of tokens that must have word embeddings for natural language.
const NL_TOKEN_THRESHOLD: f64 = 0.5;
/// Values inspected for inference (a cheap prefix sample).
const INFERENCE_SAMPLE: usize = 200;

const BOOLEAN_TOKENS: &[&str] = &["true", "false", "yes", "no", "t", "f", "y", "n"];

/// Infer the fine-grained type of a column.
///
/// Decision order mirrors the paper's seven types: booleans (token-based),
/// integers, floats, dates, named entities (NER model), natural-language
/// text (word-embedding existence), and generic strings as the fallback.
/// All-null columns default to `String`.
pub fn infer_fine_grained_type(column: &Column, we: &WordEmbeddings) -> FineGrainedType {
    let sample: Vec<&str> = column
        .values
        .iter()
        .map(|s| s.as_str())
        .filter(|v| !is_null(v))
        .take(INFERENCE_SAMPLE)
        .collect();
    if sample.is_empty() {
        return FineGrainedType::String;
    }
    let n = sample.len() as f64;

    let bool_hits = sample
        .iter()
        .filter(|v| {
            let v = v.trim();
            BOOLEAN_TOKENS.iter().any(|t| t.eq_ignore_ascii_case(v))
        })
        .count();
    if bool_hits as f64 / n >= PARSE_THRESHOLD {
        return FineGrainedType::Boolean;
    }

    let int_hits = sample
        .iter()
        .filter(|v| v.trim().parse::<i64>().is_ok())
        .count();
    if int_hits as f64 / n >= PARSE_THRESHOLD {
        return FineGrainedType::Int;
    }

    let float_hits = sample
        .iter()
        .filter(|v| v.trim().parse::<f64>().is_ok())
        .count();
    if float_hits as f64 / n >= PARSE_THRESHOLD {
        return FineGrainedType::Float;
    }

    let date_hits = sample
        .iter()
        .filter(|v| parse_date_parts(v).is_some())
        .count();
    if date_hits as f64 / n >= PARSE_THRESHOLD {
        return FineGrainedType::Date;
    }

    let ner_hits = sample
        .iter()
        .filter(|v| recognize_entity(v).is_some())
        .count();
    if ner_hits as f64 / n >= NER_THRESHOLD {
        return FineGrainedType::NamedEntity;
    }

    // natural language: multi-token values whose tokens mostly have
    // word embeddings
    let mut tokens_total = 0usize;
    let mut tokens_known = 0usize;
    let mut multiword = 0usize;
    for v in &sample {
        let mut tokens = 0usize;
        for t in v.split_whitespace() {
            tokens += 1;
            if we.knows(t.trim_matches(|c: char| c.is_ascii_punctuation())) {
                tokens_known += 1;
            }
        }
        if tokens >= 3 {
            multiword += 1;
        }
        tokens_total += tokens;
    }
    if multiword as f64 / n >= 0.5
        && tokens_total > 0
        && tokens_known as f64 / tokens_total as f64 >= NL_TOKEN_THRESHOLD
    {
        return FineGrainedType::NaturalLanguage;
    }

    FineGrainedType::String
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(values: &[&str]) -> Column {
        Column::new("c", values.iter().map(|s| s.to_string()).collect())
    }

    fn infer(values: &[&str]) -> FineGrainedType {
        infer_fine_grained_type(&col(values), &WordEmbeddings::new())
    }

    #[test]
    fn integers() {
        assert_eq!(infer(&["1", "2", "-5", "1000"]), FineGrainedType::Int);
    }

    #[test]
    fn floats() {
        assert_eq!(infer(&["1.5", "2.0", "-0.25", "3"]), FineGrainedType::Float);
    }

    #[test]
    fn booleans() {
        assert_eq!(infer(&["true", "False", "YES", "no"]), FineGrainedType::Boolean);
    }

    #[test]
    fn dates() {
        assert_eq!(
            infer(&["2021-01-02", "2020-05-06", "1999/12/31"]),
            FineGrainedType::Date
        );
    }

    #[test]
    fn named_entities() {
        assert_eq!(
            infer(&["London", "Paris", "Tokyo", "Cairo"]),
            FineGrainedType::NamedEntity
        );
        assert_eq!(
            infer(&["Alice Smith", "Bob Jones", "Carol White"]),
            FineGrainedType::NamedEntity
        );
    }

    #[test]
    fn natural_language() {
        assert_eq!(
            infer(&[
                "the product was really great",
                "loved it and works well",
                "would recommend to anyone",
            ]),
            FineGrainedType::NaturalLanguage
        );
    }

    #[test]
    fn generic_strings() {
        assert_eq!(infer(&["zx-9", "qq-14", "ab-77"]), FineGrainedType::String);
        // postal-code-ish values
        assert_eq!(infer(&["H3G1M8", "K1A0B1", "M5V3L9"]), FineGrainedType::String);
    }

    #[test]
    fn nulls_are_ignored() {
        assert_eq!(infer(&["NA", "", "5", "6", "7"]), FineGrainedType::Int);
    }

    #[test]
    fn all_null_defaults_to_string() {
        assert_eq!(infer(&["NA", "", "null"]), FineGrainedType::String);
    }

    #[test]
    fn mixed_majority_wins() {
        // 1 non-numeric out of 12 keeps Int above the 0.9 threshold
        assert_eq!(
            infer(&["1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "x"]),
            FineGrainedType::Int
        );
        // 2 of 6 breaks it
        assert_ne!(
            infer(&["1", "2", "3", "4", "x", "y"]),
            FineGrainedType::Int
        );
    }
}
