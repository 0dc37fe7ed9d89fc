//! The in-memory fleet, bit for bit: every client `build_experiment_clients`
//! and `build_experiment_client` hand out must hold exactly the tensors
//! `build_clients` stacks from the generated `Corpus` of the same specs.
//! The corpus path is the reference: it keeps every sample as its own
//! `Sample` and batches each split in order, so a fleet builder that
//! writes samples anywhere else (a different slot, a different split, a
//! different client) shows up here as a bit difference.
//!
//! Run in every `RTE_THREADS` × `RTE_SIMD` cell: the reference is
//! generated on the same budget as the fleet, and both must agree.

use rte_core::{
    build_clients, build_experiment_client, build_experiment_clients, CoreError, ExperimentConfig,
};
use rte_eda::corpus::{generate_corpus_for_specs_with, UniverseConfig, PAPER_CLIENTS};
use rte_eda::EdaError;
use rte_fed::{Client, ClientSet};
use rte_tensor::Tensor;

/// Shape and every bit of a tensor.
fn bits(t: &Tensor) -> (Vec<usize>, Vec<u32>) {
    (
        t.shape().dims().to_vec(),
        t.data().iter().map(|v| v.to_bits()).collect(),
    )
}

fn split_bits(set: &ClientSet) -> [(Vec<usize>, Vec<u32>); 2] {
    let (features, labels) = set.minibatch_range(0..set.len());
    [bits(&features), bits(&labels)]
}

fn assert_same_client(got: &Client, want: &Client, what: &str) {
    assert_eq!(got.id, want.id, "{what}");
    assert_eq!(
        split_bits(&got.train),
        split_bits(&want.train),
        "{what}: train"
    );
    assert_eq!(
        split_bits(&got.test),
        split_bits(&want.test),
        "{what}: test"
    );
}

/// The fleet against `build_clients` over the generated corpus, whole
/// and one party at a time.
fn check(name: &str, config: &ExperimentConfig) {
    let specs = config.client_specs().unwrap();
    let corpus =
        generate_corpus_for_specs_with(&specs, &config.corpus, config.corpus_parallelism).unwrap();
    let reference = build_clients(&corpus).unwrap();
    drop(corpus);
    let fleet = build_experiment_clients(config).unwrap();
    assert_eq!(fleet.len(), reference.len(), "{name}");
    for (k, (got, want)) in fleet.iter().zip(&reference).enumerate() {
        assert_same_client(got, want, &format!("{name}: fleet client {k}"));
        let alone = build_experiment_client(config, k).unwrap();
        assert_same_client(&alone, want, &format!("{name}: client {k} alone"));
    }
}

#[test]
fn tiny_fleet_is_the_stacked_corpus_bitwise() {
    check("tiny", &ExperimentConfig::tiny());
}

#[test]
fn scaled_quick_fleet_is_the_stacked_corpus_bitwise() {
    // The `--quick` profile of the table binaries: one placement per
    // design of the scaled Table 2 fleet.
    let mut config = ExperimentConfig::scaled();
    config.corpus.placement_scale = 0.0;
    check("scaled-quick", &config);
}

#[test]
fn universe_fleet_is_the_stacked_corpus_bitwise() {
    // Twelve synthesized clients at the scaled placement counts: several
    // placements per design, so every split is a run of several jobs.
    let config = ExperimentConfig::scaled().with_population(UniverseConfig::new(12, 36));
    check("universe-12", &config);
}

#[test]
fn a_client_with_an_empty_split_is_refused_as_an_empty_batch() {
    let config = ExperimentConfig::tiny();
    let mut spec = PAPER_CLIENTS[1];
    spec.test_designs = 0;
    let corpus =
        generate_corpus_for_specs_with(&[spec], &config.corpus, config.corpus_parallelism).unwrap();
    assert_eq!(
        build_clients(&corpus).err(),
        Some(CoreError::Eda(EdaError::InvalidConfig {
            reason: "empty batch".into()
        }))
    );
}
