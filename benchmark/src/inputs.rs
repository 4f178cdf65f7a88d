//! Seeded inputs: a SANTOS-Large-shaped lake rendered to raw CSV, its
//! pipeline scripts, and the held-out churn set.
//!
//! The *shape* of the lake (tables, columns per table, rows, domains) comes
//! from a fixed structure seed; the run seed redraws every cell value and
//! every script. So two seeds give different inputs of the same size, and
//! a metric's spread across seeds measures the program, not the lake.

use std::collections::HashMap;

use kglids::PipelineScript;
use lids_datagen::pipelines::DatasetSketch;
use lids_datagen::{generate_corpus, CorpusSpec, LakeSpec, DOMAINS};
use lids_profiler::csv::{write_csv, RawDataset, RawTable};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Fixes the lake's shape for every run seed.
const STRUCTURE_SEED: u64 = 0x5A8;
/// Tables grouped into one dataset.
const TABLES_PER_DATASET: usize = 4;
/// Pipeline scripts generated per dataset.
const SCRIPTS_PER_DATASET: usize = 8;

/// Which lake a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LakeSize {
    /// `lake_m`: 200 tables in 50 datasets, 5 of them held out for churn.
    Full,
    /// `lake_smoke`: 40 tables in 10 datasets, 3 of them held out.
    Smoke,
}

impl LakeSize {
    fn spec(self) -> LakeSpec {
        let mut spec = match self {
            LakeSize::Full => LakeSpec::santos_large().scaled(0.4),
            LakeSize::Smoke => LakeSpec {
                seeds: 8,
                ..LakeSpec::santos_large().scaled(0.4)
            },
        };
        spec.name = "lake".into();
        spec.seed = STRUCTURE_SEED;
        spec
    }

    fn churn_datasets(self) -> usize {
        match self {
            LakeSize::Full => 5,
            LakeSize::Smoke => 3,
        }
    }
}

/// One table of the base lake, as the query deck addresses it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    pub dataset: String,
    pub table: String,
}

/// One dataset with the scripts that read it: the unit of a delta.
#[derive(Debug, Clone)]
pub struct DatasetInput {
    pub raw: RawDataset,
    pub scripts: Vec<PipelineScript>,
    pub columns: usize,
}

/// Everything a run feeds the program.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Datasets bootstrapped into the lake.
    pub base: Vec<DatasetInput>,
    /// Datasets held out of the bootstrap, added and removed by deltas.
    pub churn: Vec<DatasetInput>,
    /// The base lake's tables, in generation order.
    pub tables: Vec<TableRef>,
    /// Column labels of the base lake, sorted and deduplicated: the keyword
    /// pool of the `search` class.
    pub keywords: Vec<String>,
}

impl Inputs {
    pub fn base_columns(&self) -> usize {
        self.base.iter().map(|d| d.columns).sum()
    }

    pub fn base_csv_bytes(&self) -> usize {
        self.base
            .iter()
            .flat_map(|d| d.raw.tables.iter())
            .map(|t| t.bytes.len())
            .sum()
    }
}

/// Generate the inputs of one run. The same `(seed, size)` gives the same
/// bytes.
pub fn generate(seed: u64, size: LakeSize) -> Inputs {
    let mut lake = size.spec().generate();
    // the structure seed fixed names and shapes; the run seed redraws values
    let domains: HashMap<&str, &lids_datagen::Domain> =
        DOMAINS.iter().map(|d| (d.name(0), d)).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    for table in &mut lake.tables {
        for column in &mut table.columns {
            let domain = domains[column.name.as_str()];
            for value in &mut column.values {
                *value = domain.value(domain.scale(0), &mut rng);
            }
        }
    }

    let sketches: Vec<DatasetSketch> = lake
        .tables
        .chunks(TABLES_PER_DATASET)
        .enumerate()
        .map(|(i, tables)| DatasetSketch {
            name: format!("ds{i:02}"),
            tables: tables
                .iter()
                .map(|t| {
                    (
                        t.name.clone(),
                        t.columns.iter().map(|c| c.name.clone()).collect(),
                    )
                })
                .collect(),
            character: i % 5,
        })
        .collect();
    let mut scripts: HashMap<String, Vec<PipelineScript>> = HashMap::new();
    let corpus = CorpusSpec {
        datasets: sketches.clone(),
        pipelines_per_dataset: SCRIPTS_PER_DATASET,
        seed,
    };
    for p in generate_corpus(&corpus) {
        scripts
            .entry(p.metadata.dataset.clone())
            .or_default()
            .push(PipelineScript {
                metadata: p.metadata,
                source: p.source,
            });
    }

    let mut datasets: Vec<DatasetInput> = lake
        .tables
        .chunks(TABLES_PER_DATASET)
        .zip(&sketches)
        .map(|(tables, sketch)| DatasetInput {
            raw: RawDataset::new(
                sketch.name.clone(),
                tables
                    .iter()
                    .map(|t| RawTable::new(t.name.clone(), write_csv(t).into_bytes()))
                    .collect(),
            ),
            scripts: scripts.remove(&sketch.name).unwrap_or_default(),
            columns: tables.iter().map(|t| t.columns.len()).sum(),
        })
        .collect();
    let churn = datasets.split_off(datasets.len() - size.churn_datasets());

    let tables: Vec<TableRef> = datasets
        .iter()
        .flat_map(|d| {
            d.raw.tables.iter().map(|t| TableRef {
                dataset: d.raw.name.clone(),
                table: t.name.clone(),
            })
        })
        .collect();
    let base_tables = tables.len();
    let mut keywords: Vec<String> = lake.tables[..base_tables]
        .iter()
        .flat_map(|t| t.columns.iter().map(|c| c.name.clone()))
        .collect();
    keywords.sort();
    keywords.dedup();

    Inputs {
        base: datasets,
        churn,
        tables,
        keywords,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_same_shape() {
        let a = generate(7, LakeSize::Smoke);
        let b = generate(7, LakeSize::Smoke);
        let c = generate(8, LakeSize::Smoke);
        let bytes = |i: &Inputs| -> Vec<Vec<u8>> {
            i.base
                .iter()
                .chain(&i.churn)
                .flat_map(|d| d.raw.tables.iter().map(|t| t.bytes.clone()))
                .collect()
        };
        assert_eq!(bytes(&a), bytes(&b));
        assert_ne!(bytes(&a), bytes(&c));
        assert_eq!(a.tables, c.tables);
        assert_eq!(a.keywords, c.keywords);
        assert_eq!(a.base_columns(), c.base_columns());
        assert_eq!(a.base.len(), 7);
        assert_eq!(a.churn.len(), 3);
        assert_eq!(a.tables.len(), 28);
        assert!(a
            .base
            .iter()
            .all(|d| d.scripts.len() == SCRIPTS_PER_DATASET));
    }
}
