//! The eight methods' outcomes, pinned across commits.
//!
//! Every `MethodOutcome` field — per-client AUC, average precision,
//! confusion counts and score histograms, the derived AUC views, and
//! every `RoundRecord` including its `mean_train_loss` — is folded into
//! one FNV-1a digest over `to_bits`, for all eight methods on a
//! 4-client synthetic fleet, under full participation and under half
//! participation with scenario dropout 0.3 (the cells where some client
//! sits a round out), each with and without per-round history.
//!
//! The constants were computed at commit `b13fe81` (the parent of the
//! per-slot deployment) and must not change: the methods' round loops
//! may be restructured, their bits may not. Outcomes are bit-identical
//! at every `RTE_THREADS` and `RTE_SIMD` cell, so one table serves all.

use rte_fed::{
    methods::run_method, Client, ClientSet, EvalReport, FedConfig, Method, MethodOutcome,
    ModelFactory, ScenarioConfig,
};
use rte_nn::models::{FlNet, FlNetConfig};
use rte_tensor::rng::Xoshiro256;
use rte_tensor::Tensor;

/// A client whose labels threshold channel 0, the threshold shifted per
/// client (heterogeneity in miniature).
fn client(id: usize, seed: u64) -> Client {
    let threshold = 0.45 + 0.1 * (id as f32 % 3.0) / 3.0;
    let make = |n: usize, salt: u64| {
        let mut rng = Xoshiro256::seed_from(seed ^ salt);
        let x = Tensor::from_fn(&[n, 2, 8, 8], |_| rng.uniform());
        let mut y = Tensor::zeros(&[n, 1, 8, 8]);
        for ni in 0..n {
            for i in 0..64 {
                let hot = x.data()[ni * 128 + i] > threshold;
                y.data_mut()[ni * 64 + i] = f32::from(u8::from(hot));
            }
        }
        ClientSet::new(x, y).unwrap()
    };
    Client::new(id, make(6 + id, 0xAAAA), make(3, 0xBBBB))
}

fn fleet() -> Vec<Client> {
    (0..4).map(|k| client(k + 1, 300 + k as u64)).collect()
}

fn factory() -> ModelFactory {
    Box::new(|seed| {
        let config = FlNetConfig {
            in_channels: 2,
            hidden: 6,
            kernel: 3,
            depth: 2,
        };
        Box::new(FlNet::new(config, &mut Xoshiro256::seed_from(seed)))
    })
}

/// `participation` 1.0 or 0.5 (then with scenario dropout 0.3), and
/// `eval_every` 0 or 1.
fn config(partial: bool, eval_every: usize) -> FedConfig {
    let mut config = FedConfig::tiny();
    config.rounds = 3;
    config.clusters = 2;
    config.assigned_clusters = vec![vec![0, 2], vec![1, 3]];
    config.eval_every = eval_every;
    if partial {
        config.participation = 0.5;
        config.scenario = Some(ScenarioConfig::honest(11, 4).with_dropout(0.3));
    }
    config
}

struct Fnv(u64);

impl Fnv {
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn report(&mut self, r: &EvalReport) {
        self.f64(r.auc);
        self.f64(r.average_precision);
        let c = &r.confusion;
        for n in [
            c.true_positives,
            c.false_positives,
            c.true_negatives,
            c.false_negatives,
        ] {
            self.u64(n as u64);
        }
        let h = &r.histogram;
        self.u64(h.bins() as u64);
        for i in 0..=h.bins() {
            self.u64(u64::from(h.edge(i).to_bits()));
        }
        for &n in h.positives().iter().chain(h.negatives()) {
            self.u64(n);
        }
    }

    fn reports(&mut self, reports: &[EvalReport], aucs: &[f64], average: f64) {
        self.u64(reports.len() as u64);
        reports.iter().for_each(|r| self.report(r));
        aucs.iter().for_each(|&a| self.f64(a));
        self.f64(average);
    }
}

fn digest(outcome: &MethodOutcome) -> u64 {
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    h.reports(
        &outcome.per_client,
        &outcome.per_client_auc,
        outcome.average_auc,
    );
    h.u64(outcome.history.len() as u64);
    for record in &outcome.history {
        h.u64(record.round as u64);
        h.reports(
            &record.per_client,
            &record.per_client_auc,
            record.average_auc,
        );
        h.f64(record.mean_train_loss);
    }
    h.0
}

/// `(partial, eval_every, method, digest)`, computed at `b13fe81`.
const GOLDEN: [(bool, usize, Method, u64); 32] = [
    (false, 0, Method::LocalOnly, 0x35f0716036684e41),
    (false, 0, Method::Centralized, 0x188f745a294d5c61),
    (false, 0, Method::FedProx, 0xa1fabae817e48c34),
    (false, 0, Method::FedProxLg, 0xe6ca53ae4ecd343f),
    (false, 0, Method::Ifca, 0x28b74e553115eb4c),
    (false, 0, Method::FedProxFinetune, 0x0e82bcd18ab7e84d),
    (false, 0, Method::AssignedClustering, 0x98770444d4d6da48),
    (false, 0, Method::AlphaSync, 0xe939f2dae116e20e),
    (false, 1, Method::LocalOnly, 0x35f0716036684e41),
    (false, 1, Method::Centralized, 0x188f745a294d5c61),
    (false, 1, Method::FedProx, 0x5809476d2ff8e74f),
    (false, 1, Method::FedProxLg, 0x4e2ba44c1858c655),
    (false, 1, Method::Ifca, 0x0ea0b1d7ea67e754),
    (false, 1, Method::FedProxFinetune, 0x3efcd630fabda436),
    (false, 1, Method::AssignedClustering, 0x69fbb720ad19d8b1),
    (false, 1, Method::AlphaSync, 0x4b730d115bda935a),
    (true, 0, Method::LocalOnly, 0x35f0716036684e41),
    (true, 0, Method::Centralized, 0x188f745a294d5c61),
    (true, 0, Method::FedProx, 0x555417e61d94a801),
    (true, 0, Method::FedProxLg, 0xf2d0851b63381f28),
    (true, 0, Method::Ifca, 0xedf5de754814ae93),
    (true, 0, Method::FedProxFinetune, 0x439f15735981aded),
    (true, 0, Method::AssignedClustering, 0x4a0cac7d9c0be770),
    (true, 0, Method::AlphaSync, 0x8388c8ade272a363),
    (true, 1, Method::LocalOnly, 0x35f0716036684e41),
    (true, 1, Method::Centralized, 0x188f745a294d5c61),
    (true, 1, Method::FedProx, 0xca182f0506c5338b),
    (true, 1, Method::FedProxLg, 0x954b9abbf75fdefe),
    (true, 1, Method::Ifca, 0x259f6bf9b6b580fd),
    (true, 1, Method::FedProxFinetune, 0x509e22d8bca18617),
    (true, 1, Method::AssignedClustering, 0xba877fbdfc705523),
    (true, 1, Method::AlphaSync, 0x15181320b16e12ea),
];

#[test]
fn every_method_outcome_matches_its_golden_digest() {
    let clients = fleet();
    let factory = factory();
    let mut got = Vec::new();
    for &(partial, eval_every, method, _) in &GOLDEN {
        let outcome = run_method(method, &clients, &factory, &config(partial, eval_every))
            .unwrap_or_else(|e| panic!("{method} partial={partial} eval_every={eval_every}: {e}"));
        assert_eq!(outcome.method, method);
        got.push((partial, eval_every, method, digest(&outcome)));
    }
    let table: String = got
        .iter()
        .map(|(p, e, m, d)| format!("    ({p}, {e}, Method::{m:?}, {d:#018x}),\n"))
        .collect();
    assert_eq!(got, GOLDEN, "today's digests:\n{table}");
}

/// The partial cells really leave clients out of rounds, so the absent-
/// client branches of every round-based method are on the pinned path.
#[test]
fn the_partial_cells_leave_clients_out() {
    let clients = fleet();
    let config = config(true, 0);
    let scenario = config.scenario.as_ref().unwrap();
    let absent = (1..=config.rounds)
        .flat_map(|r| (0..clients.len()).map(move |k| (r, k)))
        .filter(|&(r, k)| !scenario.available(r, k))
        .count();
    assert!(absent > 0, "dropout 0.3 never fired over the pinned rounds");
}
