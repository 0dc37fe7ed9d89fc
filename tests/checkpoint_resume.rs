//! Checkpoint/resume guards: a coordinator killed mid-run and restarted
//! from its newest on-disk checkpoint must finish with **byte-identical**
//! output to the uninterrupted run — across thread counts and SIMD arms
//! (the checkpoint digest deliberately excludes parallelism), and
//! through the real binary (`--die-after` / `--resume`).

use std::sync::Mutex;

use decentralized_routability::fed::{
    config_digest, latest_checkpoint, local_links, read_checkpoint, run_rounds_resilient,
    write_checkpoint, Checkpoint, FaultPolicy, FedConfig, ModelFactory, Parallelism, ResumePoint,
};
use decentralized_routability::fed::{Client, ClientSet};
use decentralized_routability::net::RetryPolicy;
use decentralized_routability::nn::models::{FlNet, FlNetConfig};
use decentralized_routability::nn::StateDict;
use decentralized_routability::tensor::rng::Xoshiro256;
use decentralized_routability::tensor::simd::{self, SimdBackend};
use decentralized_routability::tensor::Tensor;

/// Tests that mutate the process-global SIMD arm serialize on this lock
/// (same pattern as `tests/transport_determinism.rs`).
static GLOBAL_ARM: Mutex<()> = Mutex::new(());

fn synthetic_client(id: usize, n_train: usize, n_test: usize, seed: u64) -> Client {
    let threshold = 0.45 + 0.1 * (id as f32 % 3.0) / 3.0;
    let make = |n: usize, salt: u64| -> ClientSet {
        let mut rng = Xoshiro256::seed_from(seed ^ salt);
        let mut x = Tensor::from_fn(&[n, 2, 8, 8], |_| rng.uniform());
        let mut y = Tensor::zeros(&[n, 1, 8, 8]);
        for ni in 0..n {
            for i in 0..64 {
                let v = x.data()[ni * 128 + i];
                y.data_mut()[ni * 64 + i] = if v > threshold { 1.0 } else { 0.0 };
            }
            for i in 0..64 {
                x.data_mut()[ni * 128 + 64 + i] = rng.uniform();
            }
        }
        ClientSet::new(x, y).unwrap()
    };
    Client::new(id, make(n_train, 0xAAAA), make(n_test, 0xBBBB))
}

fn clients(n: usize) -> Vec<Client> {
    (0..n)
        .map(|k| synthetic_client(k + 1, 5, 3, 9300 + k as u64))
        .collect()
}

fn factory() -> ModelFactory {
    Box::new(|seed| {
        let mut rng = Xoshiro256::seed_from(seed);
        Box::new(FlNet::new(
            FlNetConfig {
                in_channels: 2,
                hidden: 4,
                kernel: 3,
                depth: 2,
            },
            &mut rng,
        ))
    })
}

fn config(threads: usize) -> FedConfig {
    let mut config = FedConfig::tiny();
    config.rounds = 4;
    config.local_steps = 2;
    config.batch_size = 2;
    config.seed = 4207;
    config.parallelism = Parallelism::new(threads);
    config
}

fn policy() -> FaultPolicy {
    FaultPolicy {
        retry: RetryPolicy::immediate(2),
        min_quorum: 3,
        ..FaultPolicy::default()
    }
}

/// Runs the resilient loop, writing a checkpoint to `dir` after every
/// round; aborts the run (simulating the kill) right after `die_after`.
fn run_checkpointed(
    config: &FedConfig,
    dir: &std::path::Path,
    die_after: Option<usize>,
) -> Option<decentralized_routability::fed::ResilientOutcome> {
    let fleet = clients(3);
    let factory = factory();
    let digest = config_digest(config, &fleet);
    let mut links = local_links(&fleet, &factory, config, None).unwrap();
    let mut hook = |round: usize, seq: u64, state: &StateDict| {
        write_checkpoint(
            dir,
            &Checkpoint {
                round: round as u64,
                seq,
                digest,
                state: state.clone(),
            },
        )?;
        if Some(round) == die_after {
            // The test's stand-in for `kill -9`: stop driving rounds.
            return Err(decentralized_routability::fed::FedError::Checkpoint {
                reason: "killed by test".into(),
            });
        }
        Ok(())
    };
    run_rounds_resilient(
        &fleet,
        &factory,
        config,
        &mut links,
        &policy(),
        None,
        Some(&mut hook),
    )
    .ok()
}

/// Resumes from the newest checkpoint in `dir` and runs to completion.
fn resume_from_disk(
    config: &FedConfig,
    dir: &std::path::Path,
) -> decentralized_routability::fed::ResilientOutcome {
    let fleet = clients(3);
    let factory = factory();
    let digest = config_digest(config, &fleet);
    let path = latest_checkpoint(dir)
        .unwrap()
        .expect("a checkpoint exists");
    let ckpt = read_checkpoint(&path, Some(digest)).unwrap();
    let mut links = local_links(&fleet, &factory, config, None).unwrap();
    run_rounds_resilient(
        &fleet,
        &factory,
        config,
        &mut links,
        &policy(),
        Some(ResumePoint {
            round: ckpt.round as usize,
            seq: ckpt.seq,
            state: ckpt.state,
        }),
        None,
    )
    .unwrap()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rte-ckpt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The full disk round trip: a run killed after round 2 whose successor
/// resumes from the newest checkpoint *file* finishes with the same
/// final-table bits as the uninterrupted run.
#[test]
fn killed_run_resumes_from_disk_bit_identically() {
    let _guard = GLOBAL_ARM.lock().unwrap();
    let before = simd::global();
    simd::set_global(SimdBackend::Scalar);

    let config = config(1);
    let full = run_checkpointed(&config, &temp_dir("full"), None).expect("uninterrupted run");

    let dir = temp_dir("killed");
    assert!(
        run_checkpointed(&config, &dir, Some(2)).is_none(),
        "the kill hook must abort the run"
    );
    // Only rounds 1 and 2 made it to disk.
    let newest = latest_checkpoint(&dir).unwrap().unwrap();
    assert!(newest.to_string_lossy().contains("0000000002"));

    let resumed = resume_from_disk(&config, &dir);
    assert_eq!(resumed.completed_rounds, config.rounds);
    for (a, b) in resumed
        .outcome
        .per_client
        .iter()
        .zip(full.outcome.per_client.iter())
    {
        assert_eq!(a.auc.to_bits(), b.auc.to_bits(), "resumed AUC bits drifted");
    }
    assert_eq!(
        resumed.outcome.average_auc.to_bits(),
        full.outcome.average_auc.to_bits()
    );
    simd::set_global(before);
}

/// The digest excludes parallelism by design: a checkpoint written at 1
/// thread on the scalar arm resumes at 4 threads on the detected arm —
/// and still lands on the same bits (rules 2 + 3 compose with resume).
#[test]
fn resume_crosses_thread_counts_and_simd_arms() {
    let _guard = GLOBAL_ARM.lock().unwrap();
    let before = simd::global();

    simd::set_global(SimdBackend::Scalar);
    let full = run_checkpointed(&config(1), &temp_dir("xfull"), None).expect("uninterrupted run");
    let dir = temp_dir("xkilled");
    assert!(run_checkpointed(&config(1), &dir, Some(2)).is_none());

    for threads in [1usize, 4] {
        for arm in [SimdBackend::Scalar, SimdBackend::detect()] {
            simd::set_global(arm);
            let resumed = resume_from_disk(&config(threads), &dir);
            assert_eq!(
                resumed.outcome.average_auc.to_bits(),
                full.outcome.average_auc.to_bits(),
                "resume drifted at {threads} threads / {arm} arm"
            );
        }
    }
    simd::set_global(before);
}

/// A checkpoint from a *different* experiment must not resume: the
/// config digest check turns the mismatch into a typed error.
#[test]
fn checkpoint_from_another_config_is_rejected() {
    let _guard = GLOBAL_ARM.lock().unwrap();
    let before = simd::global();
    simd::set_global(SimdBackend::Scalar);

    let dir = temp_dir("mismatch");
    assert!(run_checkpointed(&config(1), &dir, Some(2)).is_none());
    let path = latest_checkpoint(&dir).unwrap().unwrap();

    let mut other = config(1);
    other.seed ^= 1;
    let fleet = clients(3);
    let other_digest = config_digest(&other, &fleet);
    let err = read_checkpoint(&path, Some(other_digest)).unwrap_err();
    assert!(
        matches!(
            err,
            decentralized_routability::fed::CheckpointError::DigestMismatch { .. }
        ),
        "got {err:?}"
    );
    simd::set_global(before);
}

/// Release-gated end-to-end pin: the `rte-coordinator` binary killed by
/// `--die-after 2` (exit code 17) and restarted with `--resume` must
/// print byte-for-byte the table of an uninterrupted run. CI runs this
/// via `--release -- --include-ignored`.
#[test]
#[ignore = "release-only: three full coordinator runs (CI runs with --include-ignored)"]
fn killed_coordinator_binary_resumes_to_identical_table_bytes() {
    let base = [
        "--transport",
        "channel",
        "--clients",
        "3",
        "--quick",
        "--seed",
        "42",
        "--rounds",
        "4",
    ];
    let dir = temp_dir("binary");
    let run = |extra: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_rte-coordinator"))
            .args(base)
            .args(extra)
            .output()
            .unwrap()
    };

    let full = run(&[]);
    assert!(full.status.success());

    let dir_flag = dir.to_str().unwrap();
    let killed = run(&["--checkpoint-dir", dir_flag, "--die-after", "2"]);
    assert_eq!(
        killed.status.code(),
        Some(17),
        "die-after must exit with its own code: {}",
        String::from_utf8_lossy(&killed.stderr)
    );
    assert!(
        killed.stdout.is_empty(),
        "a killed run must not print a table"
    );

    let resumed = run(&["--checkpoint-dir", dir_flag, "--resume"]);
    assert!(
        resumed.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        String::from_utf8(resumed.stdout).unwrap(),
        String::from_utf8(full.stdout).unwrap(),
        "resumed table must be byte-identical to the uninterrupted run"
    );
    assert!(
        String::from_utf8_lossy(&resumed.stderr).contains("resume: round 2"),
        "the resumed run must report where it picked up"
    );
}

/// Runs the `rte-coordinator` binary on a 3-round quick channel fleet.
fn coordinator(extra: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_rte-coordinator"))
        .args(["--transport", "channel", "--quick", "--rounds", "3"])
        .args(extra)
        .output()
        .unwrap()
}

/// Release-gated end-to-end pin: `--secure` is a stage of the one
/// synchronous loop, so it composes with seeded chaos + retries (the
/// masked sum is recovered bit for bit, so the table bytes are those of
/// the faultless secure run) and with kill-and-resume checkpoints.
#[test]
#[ignore = "release-only: five full coordinator runs (CI runs with --include-ignored)"]
fn secure_coordinator_binary_composes_with_chaos_and_checkpoints() {
    let secure = coordinator(&["--secure"]);
    assert!(secure.status.success());
    let table = String::from_utf8(secure.stdout).unwrap();

    let chaotic = coordinator(&[
        "--secure",
        "--chaos-seed",
        "7",
        "--chaos-drop",
        "0.2",
        "--retries",
        "6",
    ]);
    let stderr = String::from_utf8_lossy(&chaotic.stderr);
    assert!(chaotic.status.success(), "secure + chaos failed: {stderr}");
    assert!(stderr.contains("retrying"), "the palette never fired");
    assert_eq!(String::from_utf8(chaotic.stdout).unwrap(), table);

    let dir = temp_dir("secure-binary");
    let dir_flag = dir.to_str().unwrap();
    let killed = coordinator(&["--secure", "--checkpoint-dir", dir_flag, "--die-after", "1"]);
    assert_eq!(
        killed.status.code(),
        Some(17),
        "die-after must exit with its own code: {}",
        String::from_utf8_lossy(&killed.stderr)
    );
    assert!(killed.stdout.is_empty());
    let resumed = coordinator(&["--secure", "--checkpoint-dir", dir_flag, "--resume"]);
    assert!(
        String::from_utf8_lossy(&resumed.stderr).contains("resume: round 1"),
        "the resumed run must report where it picked up"
    );
    assert_eq!(String::from_utf8(resumed.stdout).unwrap(), table);
}

/// Every flag combination the coordinator does not run is refused with
/// exit code 2 and its message, before a fleet is built.
#[test]
fn coordinator_refusals_exit_2_with_their_message() {
    let refused: [(&[&str], &str); 9] = [
        (
            &["--async", "virtual", "--secure"],
            "--secure only applies to synchronous rounds",
        ),
        (
            &[
                "--transport",
                "uds",
                "--async",
                "wall",
                "--chaos-drop",
                "0.1",
            ],
            "--chaos-* does not apply to --async wall",
        ),
        (
            &["--async", "virtual", "--checkpoint-dir", "unused"],
            "checkpointing only applies to synchronous rounds",
        ),
        (&["--async", "wall"], "--async wall needs --transport uds"),
        (
            &["--async", "virtual", "--buffer", "9"],
            "buffer 9 exceeds fleet size 4",
        ),
        (
            &["--async", "virtual", "--aggregations", "0"],
            "aggregations and buffer must be positive",
        ),
        (
            &["--resume"],
            "--resume / --die-after need --checkpoint-dir",
        ),
        (&["--min-quorum", "9"], "--min-quorum must be in 1..=4"),
        (
            &["--clients-procs", "2"],
            "--clients-procs only applies to --transport uds",
        ),
    ];
    for (flags, message) in refused {
        let out = coordinator(flags);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {stderr}");
        assert!(stderr.contains(message), "{flags:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{flags:?} printed a table");
    }
}
