//! `wire_uds_2proc`: the real process + socket path.
//!
//! The benchmark *is* the coordinator: it builds its own view of the
//! fleet, binds a Unix-domain socket, spawns two real `rte-client`
//! processes (the binary next to this one), accepts their hellos, and
//! drives `run_rounds_resilient` over the sockets. Set-up ends when the
//! fleet is accepted; the run ends when the clients are reaped. It
//! measures what no in-process workload can: process spawn, each
//! process regenerating the fleet, kernel socket copies, and a
//! coordinator blocked in `recv` while clients train. Two single-thread
//! client processes keep the load at the sandbox's core count.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use decentralized_routability::core::{
    model_factory, transport_config_with_rounds, ExperimentConfig,
};
use decentralized_routability::eda::Family;
use decentralized_routability::fed::wire::{recv_message_within, Message};
use decentralized_routability::fed::{run_rounds_resilient, FaultPolicy, FedError, RoundHook};
use decentralized_routability::net::{UdsListener, UdsTransport};
use decentralized_routability::nn::models::{ModelKind, ModelScale};
use decentralized_routability::nn::StateDict;

use super::{
    build_fleet, score_count, settle_seed, wire_totals, ClientSize, InProcessTable, IterCtx,
    Iteration, PhaseTimer, Workload,
};
use crate::clock::now_ns;
use crate::procfs::peak_rss_mb;
use crate::wrap::{MeteredTransport, Seam};

const THREADS: usize = 1;
const CLIENTS: usize = 2;
/// Rounds × the scaled profile's 20 local steps, both clients training
/// at once: sized so one iteration's run is about a second.
const ROUNDS: usize = 10;
const KIND: ModelKind = ModelKind::FlNet;
/// The fleet, client by client: with two clients training side by side
/// the slower one sets the round time, so each client's family and
/// sample counts are held still, not just their sum. Sized so that
/// generating it — which every process does for itself during set-up —
/// takes some 20 times the listener's 5 ms accept poll.
const FLEET: [ClientSize; CLIENTS] = [(Family::Iwls05, 24, 4), (Family::Iwls05, 24, 4)];

/// How long the whole fleet gets to dial in and say hello.
const ACCEPT_DEADLINE: Duration = Duration::from_secs(30);
/// How long clients get to exit after the shutdown message.
const REAP_DEADLINE: Duration = Duration::from_secs(10);

/// Spawned client processes; any still running when this is dropped
/// (a failed iteration, an early return) is killed and waited for, so
/// no process outlives the benchmark.
struct Fleet(Vec<Child>);

impl Fleet {
    /// Waits for every client to exit on its own; kills the ones that
    /// outlive `deadline` and reports them.
    fn reap(&mut self, deadline: Duration) -> Result<(), String> {
        let give_up = now_ns() + deadline.as_nanos() as u64;
        let mut problems = Vec::new();
        for (k, child) in self.0.iter_mut().enumerate() {
            loop {
                match child.try_wait() {
                    Ok(Some(status)) if status.success() => break,
                    Ok(Some(status)) => {
                        problems.push(format!("client {k} exited with {status}"));
                        break;
                    }
                    Ok(None) if now_ns() < give_up => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Ok(None) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        problems.push(format!("client {k} outlived the reap deadline; killed"));
                        break;
                    }
                    Err(e) => {
                        problems.push(format!("client {k}: wait failed: {e}"));
                        break;
                    }
                }
            }
        }
        self.0.clear();
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for child in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The `rte-client` binary built next to this one.
fn client_binary() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let path = me
        .parent()
        .ok_or("benchmark binary has no parent directory")?
        .join("rte-client");
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} is missing: wire_uds_2proc spawns the real client binary. Build it into the \
             same directory with `cargo build --release --manifest-path bench_e2e/Cargo.toml \
             -p decentralized_routability --bin rte-client` (bench_e2e/run.sh does)",
            path.display()
        ))
    }
}

/// Accepts `n` connections and orders them by the fleet index each
/// client announces in its hello — what `rte-coordinator` does.
fn accept_fleet(listener: &UdsListener, n: usize) -> Result<Vec<UdsTransport>, String> {
    let mut slots: Vec<Option<UdsTransport>> = (0..n).map(|_| None).collect();
    for _ in 0..n {
        let mut link = listener
            .accept_timeout(ACCEPT_DEADLINE)
            .map_err(|e| format!("accept: {e}"))?;
        let (sender, message) =
            recv_message_within(&mut link, ACCEPT_DEADLINE).map_err(|e| format!("hello: {e}"))?;
        let Message::Hello { client, .. } = message else {
            return Err(format!("peer {sender} did not open with a hello"));
        };
        match slots.get_mut(client as usize) {
            Some(slot @ None) => *slot = Some(link),
            _ => return Err(format!("client {client} is out of range or a duplicate")),
        }
    }
    Ok(slots.into_iter().flatten().collect())
}

/// See the module docs.
pub struct WireUds2proc {
    config: ExperimentConfig,
    seed: u64,
    rule7: InProcessTable,
}

impl WireUds2proc {
    /// The workload for `seed`; `smoke` shrinks it to one round.
    ///
    /// # Errors
    ///
    /// See [`settle_seed`].
    pub fn new(seed: u64, smoke: bool) -> Result<Self, String> {
        let rounds = if smoke { 1 } else { ROUNDS };
        // Exactly what each `rte-client --clients 2 --seed S --rounds R`
        // rebuilds on its side, S being the settled seed.
        let mut config =
            transport_config_with_rounds(CLIENTS, seed, false, Some(rounds)).with_threads(THREADS);
        let seed = settle_seed(&mut config, seed, |fleet| fleet == FLEET)?;
        Ok(WireUds2proc {
            config,
            seed,
            rule7: InProcessTable::default(),
        })
    }

    fn spawn_fleet(&self, socket: &Path) -> Result<Fleet, String> {
        let binary = client_binary()?;
        let mut fleet = Fleet(Vec::with_capacity(CLIENTS));
        for k in 0..CLIENTS {
            let child = Command::new(&binary)
                .arg("--socket")
                .arg(socket)
                .args(["--client-index", &k.to_string()])
                .args(["--clients", &CLIENTS.to_string()])
                .args(["--seed", &self.seed.to_string()])
                .args(["--rounds", &self.config.fed.rounds.to_string()])
                // The socket is bound before the spawn, so the first dial
                // succeeds; a small budget only keeps a client from
                // re-dialling for a minute should this process die.
                .args(["--retries", "3"])
                // The benchmark pins threads, not the environment.
                .env("RTE_THREADS", "1")
                .env("RTE_SIMD", "auto")
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .spawn()
                .map_err(|e| format!("spawn {}: {e}", binary.display()))?;
            fleet.0.push(child);
        }
        Ok(fleet)
    }
}

impl Workload for WireUds2proc {
    fn threads(&self) -> usize {
        THREADS
    }

    fn busy_cores(&self) -> usize {
        // The coordinator waits while the client processes train.
        CLIENTS
    }

    fn model(&self) -> (ModelKind, ModelScale) {
        (KIND, self.config.model_scale)
    }

    fn sizes(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("clients", CLIENTS as f64),
            ("client_processes", CLIENTS as f64),
            (
                "train_samples",
                FLEET.iter().map(|c| c.1).sum::<usize>() as f64,
            ),
            (
                "test_samples",
                FLEET.iter().map(|c| c.2).sum::<usize>() as f64,
            ),
            ("settled_seed", self.seed as f64),
            ("rounds", self.config.fed.rounds as f64),
            ("local_steps", self.config.fed.local_steps as f64),
            ("placement_scale", self.config.corpus.placement_scale),
        ]
    }

    fn iterate(&mut self, ctx: &IterCtx<'_>) -> Result<Iteration, String> {
        let tracer = ctx.tracer.map(|t| t.as_ref());
        let fed = &self.config.fed;
        let socket = ctx.scratch.join("fed.sock");

        let mut timer = PhaseTimer::start(tracer)?;
        let clients = build_fleet(&self.config, tracer)?;
        let factory = model_factory(KIND, self.config.model_scale);
        let listener = UdsListener::bind(&socket).map_err(|e| format!("bind: {e}"))?;
        let mut fleet = self.spawn_fleet(&socket)?;
        let pids: Vec<u32> = fleet.0.iter().map(Child::id).collect();
        let accepted = {
            let _span = tracer.map(|t| t.span("net.accept_fleet"));
            accept_fleet(&listener, CLIENTS)
        };
        let _ = std::fs::remove_file(&socket);
        let accepted = accepted?;
        timer.setup_done();

        let seam = tracer.map(Seam::begin);
        let mut links: Vec<_> = accepted
            .into_iter()
            .enumerate()
            .map(|(k, link)| MeteredTransport::new(link, k, seam.as_ref()))
            .collect();
        let rounds = fed.rounds;
        let mut children_rss_mb = 0.0;
        let mut hook = |round: usize, _seq: u64, _state: &StateDict| -> Result<(), FedError> {
            if let Some(seam) = &seam {
                seam.hook_entered();
            }
            if round == rounds {
                // The clients are still alive here and have done all
                // their training: their high-water mark is final.
                children_rss_mb = pids
                    .iter()
                    .map(|&pid| peak_rss_mb(Some(pid)).unwrap_or(0.0))
                    .sum();
            }
            if let Some(seam) = &seam {
                seam.hook_done(round, rounds);
            }
            Ok(())
        };
        let hook: &mut RoundHook<'_> = &mut hook;
        let policy = FaultPolicy::default();
        let result = run_rounds_resilient(
            &clients,
            &factory,
            fed,
            &mut links,
            &policy,
            None,
            Some(hook),
        )
        .map_err(|e| e.to_string())?;
        if let Some(seam) = &seam {
            seam.run_returned();
        }
        fleet.reap(REAP_DEADLINE)?;
        let mut it = timer.finish()?;

        if result.retries > 0 || !result.events.is_empty() {
            it.failed_checks.push(format!(
                "{} fault events on a clean run",
                result.events.len()
            ));
        }
        it.children_rss_mb = children_rss_mb;
        self.rule7
            .check(KIND, &clients, &self.config, result.outcome, &mut it)?;
        let (frames, bytes) = wire_totals(links.iter().map(|l| l.stats));
        it.facts.insert("rounds", rounds as f64);
        it.facts.insert("steps_per_slot", fed.local_steps as f64);
        it.facts.insert("wire_frames", frames as f64);
        it.facts.insert("wire_bytes", bytes as f64);
        it.facts.insert("score_count", score_count(&clients));
        Ok(it)
    }
}
