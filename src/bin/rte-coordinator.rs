//! Federated coordinator: runs FedProx rounds against real client
//! processes over Unix-domain sockets (or an in-process channel fleet).
//!
//! The coordinator never sees client data — each `rte-client` process
//! regenerates its own private split from the shared `(clients, seed,
//! quick)` config, and only serialized parameter sets cross the socket.
//! In the default sync mode the printed table is byte-identical to the
//! in-process `rte-bench` FedProx row for the same config
//! (`tests/transport_determinism.rs` pins this).
//!
//! Synchronous rounds — plain or `--secure` — are one loop, the round
//! engine's link-side entry ([`run_link_rounds`]); faultless, it is
//! bit-identical to the in-process path. `--async virtual` runs the
//! seeded virtual-clock buffered schedule (determinism rule 8), each
//! dispatch collected through that same link exchange ([`run_fedasync`]);
//! `--async wall` is the same schedule on real arrival order, the
//! documented non-deterministic opt-out. On the links this binary
//! exposes:
//!
//! - `--secure` — pairwise-masked aggregation: the coordinator recovers
//!   only the sum. The masks cancel only over a round's full participant
//!   set, so every participant is the quorum: retries still recover a
//!   lost slot bit-identically, a missed one ends the run typed,
//! - `--chaos-*` — seeded fault injection (determinism rule 9): every
//!   coordinator-side link is wrapped in a [`ChaosTransport`] whose
//!   drop/duplicate/reorder/corrupt/latency decisions replay bit-for-bit
//!   under the same `--chaos-seed`,
//! - `--deadline-ms` / `--retries` / `--backoff-ms` / `--min-quorum` —
//!   per-client read deadlines, seeded-jitter retry budget, and quorum
//!   degradation (missed clients are reported on stderr, never stdout);
//!   under `--async virtual` a dispatch missed after its last attempt
//!   rejoins like a dropout,
//! - `--checkpoint-dir` / `--checkpoint-every` / `--resume` — versioned
//!   CRC'd checkpoints written atomically after a round; a resumed run
//!   prints the same table bytes as an uninterrupted one
//!   (`tests/checkpoint_resume.rs` pins this). `--die-after N` exits
//!   with code 17 right after round N's checkpoint — the kill half of
//!   the kill-and-resume test.
//!
//! All of these compose on both transports. What is refused — and
//! [`Args::validate`] is the one place it is refused, before a fleet is
//! built or a process spawned — is `--secure` and checkpointing under
//! `--async` (a buffer's participant set is not known at dispatch, and
//! the schedule has no round hook), `--chaos-*` under `--async wall`,
//! `--async wall` off `--transport uds`, and an async schedule
//! [`AsyncConfig::validate`] rejects.
//!
//! ```text
//! rte-coordinator --clients 8 --clients-procs 8 --quick --seed 42
//! rte-coordinator --transport channel --quick --async virtual
//! rte-coordinator --transport channel --quick --rounds 4 \
//!     --chaos-seed 7 --chaos-drop 0.2 --retries 4 --min-quorum 2
//! rte-coordinator --transport channel --quick --rounds 4 --secure \
//!     --checkpoint-dir /tmp/ckpt --die-after 2   # then: --resume
//! ```

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use decentralized_routability::core::report::render_table;
use decentralized_routability::core::{
    build_experiment_clients, model_factory, transport_config_with_rounds, ExperimentConfig,
    TableResult,
};
use decentralized_routability::fed::{
    config_digest, latest_checkpoint, local_links, read_checkpoint, render_async_history,
    run_fedasync, run_fedasync_wall, run_link_rounds, write_checkpoint, AsyncConfig, Checkpoint,
    Client, ClientSession, FaultPolicy, MethodOutcome, ModelFactory, ResilientOutcome, ResumePoint,
    RoundHook, SecureConfig,
};
use decentralized_routability::net::{
    ChaosConfig, ChaosStats, ChaosTransport, FanIn, RetryPolicy, Transport, UdsListener,
    UdsTransport,
};
use decentralized_routability::nn::models::ModelKind;
use decentralized_routability::nn::StateDict;

/// Exit code of a run that stopped itself via `--die-after` (chosen to
/// be distinguishable from success, panics, and flag errors).
const DIE_AFTER_EXIT: i32 = 17;

/// How long [`accept_fleet`] waits for the whole fleet to dial in
/// before giving up — generous (slow CI, debug builds) but bounded, so
/// a client that never starts cannot wedge the coordinator forever.
const ACCEPT_DEADLINE: Duration = Duration::from_secs(120);

/// Which backend carries the frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TransportKind {
    /// Unix-domain sockets to real client processes (the default).
    Uds,
    /// In-process channel links — no processes, same wire codec.
    Channel,
}

/// Which round schedule runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AsyncMode {
    /// Synchronous FedProx rounds.
    Off,
    /// Buffered async on the seeded virtual clock (deterministic).
    Virtual,
    /// Buffered async on real arrival order (the documented opt-out;
    /// not reproducible).
    Wall,
}

struct Args {
    socket: PathBuf,
    clients: usize,
    clients_procs: usize,
    quick: bool,
    seed: u64,
    rounds: Option<usize>,
    transport: TransportKind,
    r#async: AsyncMode,
    secure: bool,
    aggregations: usize,
    buffer: usize,
    chaos: ChaosConfig,
    deadline_ms: u64,
    retries: u32,
    backoff_ms: u64,
    min_quorum: usize,
    checkpoint_dir: Option<PathBuf>,
    checkpoint_every: usize,
    resume: bool,
    die_after: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        socket: std::env::temp_dir().join(format!("rte-fed-{}.sock", std::process::id())),
        clients: 4,
        clients_procs: 0,
        quick: false,
        seed: 7,
        rounds: None,
        transport: TransportKind::Uds,
        r#async: AsyncMode::Off,
        secure: false,
        aggregations: 4,
        buffer: 0,
        chaos: ChaosConfig::default(),
        deadline_ms: 5000,
        retries: 3,
        backoff_ms: 50,
        min_quorum: 1,
        checkpoint_dir: None,
        checkpoint_every: 1,
        resume: false,
        die_after: None,
    };
    let mut chaos_seed: Option<u64> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => out.socket = PathBuf::from(it.next().ok_or("--socket needs a path")?),
            "--clients" => out.clients = parse_num(&mut it, "--clients")?,
            "--clients-procs" => out.clients_procs = parse_num(&mut it, "--clients-procs")?,
            "--quick" => out.quick = true,
            "--seed" => out.seed = parse_num(&mut it, "--seed")?,
            "--rounds" => out.rounds = Some(parse_num(&mut it, "--rounds")?),
            "--transport" => {
                out.transport = match it.next().as_deref() {
                    Some("uds") => TransportKind::Uds,
                    Some("channel") => TransportKind::Channel,
                    other => return Err(format!("--transport must be uds|channel, got {other:?}")),
                };
            }
            "--async" => {
                out.r#async = match it.next().as_deref() {
                    Some("off") => AsyncMode::Off,
                    Some("virtual") => AsyncMode::Virtual,
                    Some("wall") => AsyncMode::Wall,
                    other => {
                        return Err(format!("--async must be off|virtual|wall, got {other:?}"))
                    }
                };
            }
            "--secure" => out.secure = true,
            "--aggregations" => out.aggregations = parse_num(&mut it, "--aggregations")?,
            "--buffer" => out.buffer = parse_num(&mut it, "--buffer")?,
            "--chaos-seed" => chaos_seed = Some(parse_num(&mut it, "--chaos-seed")?),
            "--chaos-drop" => out.chaos.drop_p = parse_prob(&mut it, "--chaos-drop")?,
            "--chaos-dup" => out.chaos.dup_p = parse_prob(&mut it, "--chaos-dup")?,
            "--chaos-reorder" => out.chaos.reorder_p = parse_prob(&mut it, "--chaos-reorder")?,
            "--chaos-corrupt" => out.chaos.corrupt_p = parse_prob(&mut it, "--chaos-corrupt")?,
            "--chaos-window" => {
                out.chaos.reorder_window = parse_num::<usize>(&mut it, "--chaos-window")?
            }
            "--chaos-latency-min" => {
                out.chaos.latency_min = parse_num(&mut it, "--chaos-latency-min")?
            }
            "--chaos-latency-max" => {
                out.chaos.latency_max = parse_num(&mut it, "--chaos-latency-max")?
            }
            "--deadline-ms" => out.deadline_ms = parse_num(&mut it, "--deadline-ms")?,
            "--retries" => out.retries = parse_num(&mut it, "--retries")?,
            "--backoff-ms" => out.backoff_ms = parse_num(&mut it, "--backoff-ms")?,
            "--min-quorum" => out.min_quorum = parse_num(&mut it, "--min-quorum")?,
            "--checkpoint-dir" => {
                out.checkpoint_dir = Some(PathBuf::from(
                    it.next().ok_or("--checkpoint-dir needs a path")?,
                ))
            }
            "--checkpoint-every" => {
                out.checkpoint_every = parse_num(&mut it, "--checkpoint-every")?
            }
            "--resume" => out.resume = true,
            "--die-after" => out.die_after = Some(parse_num(&mut it, "--die-after")?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if out.buffer == 0 {
        out.buffer = (out.clients / 2).max(1);
    }
    // Chaos streams are salted so they never collide with training, but
    // an explicit --chaos-seed lets the fault schedule vary while the
    // learning problem stays fixed.
    out.chaos.seed = chaos_seed.unwrap_or(out.seed);
    out.validate()?;
    Ok(out)
}

impl Args {
    /// The buffered async schedule `--aggregations` / `--buffer` name.
    fn schedule(&self) -> AsyncConfig {
        AsyncConfig::new(self.aggregations, self.buffer)
    }

    /// Every refusal, in one place, before any work starts. Synchronous
    /// rounds take every flag. The buffered async schedule has no masked
    /// stage and no round hook, and the wall clock no fault policy.
    fn validate(&self) -> Result<(), String> {
        if self.clients == 0 || self.rounds == Some(0) || self.checkpoint_every == 0 {
            return Err("--clients, --rounds and --checkpoint-every must be positive".into());
        }
        self.chaos
            .validate()
            .map_err(|e| format!("bad chaos config: {e}"))?;
        let checkpointing =
            self.checkpoint_dir.is_some() || self.resume || self.die_after.is_some();
        if self.r#async != AsyncMode::Off {
            if self.secure {
                return Err("--secure only applies to synchronous rounds".into());
            }
            if checkpointing {
                return Err("checkpointing only applies to synchronous rounds".into());
            }
            self.schedule()
                .validate(self.clients)
                .map_err(|e| format!("bad async schedule: {e}"))?;
        }
        if self.r#async == AsyncMode::Wall {
            if self.transport != TransportKind::Uds {
                return Err("--async wall needs --transport uds (real arrival order)".into());
            }
            if !self.chaos.is_noop() {
                return Err("--chaos-* does not apply to --async wall".into());
            }
        }
        if self.clients_procs > 0 && self.transport != TransportKind::Uds {
            return Err("--clients-procs only applies to --transport uds".into());
        }
        if self.checkpoint_dir.is_none() && checkpointing {
            return Err("--resume / --die-after need --checkpoint-dir".into());
        }
        if self.min_quorum == 0 || self.min_quorum > self.clients {
            return Err(format!(
                "--min-quorum must be in 1..={}, got {}",
                self.clients, self.min_quorum
            ));
        }
        Ok(())
    }
}

/// Parses the next argument as a number for flag `name`.
fn parse_num<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    name: &str,
) -> Result<T, String> {
    let v = it.next().ok_or(format!("{name} needs a value"))?;
    v.parse().map_err(|_| format!("bad value for {name}: {v}"))
}

/// Parses the next argument as a probability in `[0, 1]`.
fn parse_prob(it: &mut impl Iterator<Item = String>, name: &str) -> Result<f64, String> {
    let p: f64 = parse_num(it, name)?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("{name} must be in [0, 1], got {p}"));
    }
    Ok(p)
}

/// Spawns `n` `rte-client` child processes (the binary is expected next
/// to the coordinator's own executable).
fn spawn_clients(args: &Args, n: usize) -> Result<Vec<Child>, Box<dyn std::error::Error>> {
    let me = std::env::current_exe()?;
    let client_bin = me
        .parent()
        .ok_or("coordinator binary has no parent directory")?
        .join("rte-client");
    (0..n)
        .map(|k| {
            let mut cmd = Command::new(&client_bin);
            cmd.arg("--socket")
                .arg(&args.socket)
                .arg("--client-index")
                .arg(k.to_string())
                .arg("--clients")
                .arg(args.clients.to_string())
                .arg("--seed")
                .arg(args.seed.to_string())
                .stdout(Stdio::null());
            if let Some(rounds) = args.rounds {
                cmd.arg("--rounds").arg(rounds.to_string());
            }
            if args.quick {
                cmd.arg("--quick");
            }
            if args.secure {
                cmd.arg("--secure");
            }
            Ok(cmd.spawn()?)
        })
        .collect()
}

/// Hosts every client past `--clients-procs` as an in-process thread:
/// the same [`ClientSession`] the `rte-client` binary wraps, speaking
/// the same frames over the same socket — the process boundary is a
/// deployment choice, not a protocol one (determinism rule 7). The
/// threads share the already-built fleet instead of regenerating it;
/// a failed session aborts the run loudly rather than leaving the
/// coordinator accepting forever.
fn serve_thread_clients(
    args: &Args,
    fleet: &Arc<Vec<Client>>,
    factory: &Arc<ModelFactory>,
    config: &Arc<ExperimentConfig>,
    secure: Option<SecureConfig>,
) {
    for k in args.clients_procs..fleet.len() {
        let fleet = Arc::clone(fleet);
        let factory = Arc::clone(factory);
        let config = Arc::clone(config);
        let socket = args.socket.clone();
        // rte-lint: allow(L5) thread-hosted clients: each thread is one
        // client's serve loop, blocked on its own socket — no shared
        // reduction, no schedule of its own; the training it performs
        // still goes through the one rte_tensor::parallel pool.
        std::thread::spawn(move || {
            let serve = || -> Result<(), Box<dyn std::error::Error>> {
                let mut session = ClientSession::new(&fleet, k, &factory, &config.fed, secure)?;
                let mut transport = UdsTransport::connect(&socket)?;
                session.hello(&mut transport)?;
                session.serve(&mut transport)?;
                Ok(())
            };
            if let Err(e) = serve() {
                eprintln!("thread-hosted client {k}: {e}");
                std::process::exit(1);
            }
        });
    }
}

/// Accepts `n` connections and orders them by the fleet index each
/// client announces in its hello frame. Both the accept and the hello
/// read are deadline-bounded ([`ACCEPT_DEADLINE`]): a client that never
/// dials, or dials and then goes silent, is a typed error — not a
/// coordinator wedged in a blocking read.
fn accept_fleet(
    listener: &UdsListener,
    n: usize,
) -> Result<Vec<UdsTransport>, Box<dyn std::error::Error>> {
    let mut slots: Vec<Option<UdsTransport>> = (0..n).map(|_| None).collect();
    for _ in 0..n {
        let mut link = listener.accept_timeout(ACCEPT_DEADLINE)?;
        let (sender, message) =
            decentralized_routability::fed::wire::recv_message_within(&mut link, ACCEPT_DEADLINE)?;
        let decentralized_routability::fed::wire::Message::Hello { client, .. } = message else {
            return Err(format!("peer {sender} did not open with a hello").into());
        };
        let slot = client as usize;
        if slot >= n || slots[slot].is_some() {
            return Err(format!("client {client} is out of range or a duplicate").into());
        }
        slots[slot] = Some(link);
    }
    Ok(slots
        .into_iter()
        .map(|s| s.expect("all slots filled"))
        .collect())
}

/// Runs the schedule `--async` names over `links` — the one dispatch
/// both transports share (`--async wall` needs the sockets themselves
/// and stays with the uds arm of `main`): synchronous rounds, or the
/// virtual-clock async schedule, under the fault policy the flags name.
/// Each link is wrapped in a seeded [`ChaosTransport`] (lane = fleet
/// index), a pass-through unless the palette is armed.
fn run_schedule<T: Transport>(
    links: Vec<T>,
    fleet: &[Client],
    factory: &ModelFactory,
    config: &ExperimentConfig,
    args: &Args,
) -> Result<MethodOutcome, Box<dyn std::error::Error>> {
    let mut links = links
        .into_iter()
        .enumerate()
        .map(|(lane, link)| ChaosTransport::new(link, args.chaos.clone(), lane as u64))
        .collect::<Result<Vec<_>, _>>()?;
    let policy = FaultPolicy {
        deadline: Duration::from_millis(args.deadline_ms.max(1)),
        retry: RetryPolicy {
            max_attempts: args.retries.max(1),
            base_ms: args.backoff_ms,
            max_ms: args.backoff_ms.saturating_mul(16).max(1),
            jitter_seed: args.seed,
        },
        min_quorum: args.min_quorum,
    };
    let result = match args.r#async {
        AsyncMode::Off => run_sync(&mut links, fleet, factory, config, args, &policy)?,
        AsyncMode::Virtual => {
            let schedule = args.schedule();
            let (result, records) =
                run_fedasync(fleet, factory, &config.fed, &schedule, &mut links, &policy)?;
            let history = render_async_history("Async schedule (virtual clock)", &records);
            println!("{history}");
            result
        }
        AsyncMode::Wall => unreachable!("main runs --async wall on the sockets themselves"),
    };
    if !args.chaos.is_noop() {
        let sum =
            |count: fn(&ChaosStats) -> u64| links.iter().map(|l| count(l.stats())).sum::<u64>();
        eprintln!(
            "chaos: seed {} over {} frames: {} dropped, {} duplicated, {} reordered, {} corrupted",
            args.chaos.seed,
            sum(|s| s.frames_sent),
            sum(|s| s.drops),
            sum(|s| s.dups),
            sum(|s| s.reorders),
            sum(|s| s.corruptions)
        );
    }
    // Fault events go to stderr; stdout stays table-only.
    for event in &result.events {
        eprintln!("fault: {event}");
    }
    if result.retries > 0 || !result.events.is_empty() {
        eprintln!(
            "resilient: {} rounds completed, {} retries, {} fault events",
            result.completed_rounds,
            result.retries,
            result.events.len()
        );
    }
    Ok(result.outcome)
}

/// The synchronous run itself: the masked stage under `--secure`, the
/// checkpoint hook (and the `--die-after` kill switch) when a checkpoint
/// dir is configured, resume point from the newest valid checkpoint
/// under `--resume`.
fn run_sync<T: Transport>(
    links: &mut [T],
    fleet: &[Client],
    factory: &ModelFactory,
    config: &ExperimentConfig,
    args: &Args,
    policy: &FaultPolicy,
) -> Result<ResilientOutcome, Box<dyn std::error::Error>> {
    let digest = config_digest(&config.fed, fleet);

    let resume = match &args.checkpoint_dir {
        Some(dir) if args.resume => match latest_checkpoint(dir)? {
            Some(path) => {
                let ckpt = read_checkpoint(&path, Some(digest))?;
                eprintln!(
                    "resume: round {} from {} (digest {:016x})",
                    ckpt.round,
                    path.display(),
                    digest
                );
                Some(ResumePoint {
                    round: ckpt.round as usize,
                    seq: ckpt.seq,
                    state: ckpt.state,
                })
            }
            None => {
                eprintln!("resume: no checkpoint in {}, starting fresh", dir.display());
                None
            }
        },
        _ => None,
    };

    let mut hook_storage;
    let hook: Option<&mut RoundHook<'_>> = match &args.checkpoint_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("checkpoint dir {}: {e}", dir.display()))?;
            let dir = dir.clone();
            let every = args.checkpoint_every;
            let die_after = args.die_after;
            let rounds = config.fed.rounds;
            hook_storage = move |round: usize, seq: u64, state: &StateDict| {
                if round.is_multiple_of(every) || round == rounds || Some(round) == die_after {
                    let ckpt = Checkpoint {
                        round: round as u64,
                        seq,
                        digest,
                        state: state.clone(),
                    };
                    let path = write_checkpoint(&dir, &ckpt)?;
                    eprintln!("checkpoint: round {round} -> {}", path.display());
                }
                if Some(round) == die_after {
                    eprintln!("die-after: stopping after round {round} (exit {DIE_AFTER_EXIT})");
                    std::process::exit(DIE_AFTER_EXIT);
                }
                Ok(())
            };
            Some(&mut hook_storage)
        }
        None => None,
    };

    let secure = args.secure.then(SecureConfig::default);
    Ok(run_link_rounds(
        fleet,
        factory,
        &config.fed,
        links,
        secure,
        policy,
        resume,
        hook,
    )?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!(
            "usage: rte-coordinator [--socket PATH] [--clients N] [--clients-procs N] \
             [--quick] [--seed N] [--rounds N] [--transport uds|channel] \
             [--async off|virtual|wall] [--secure] [--aggregations N] [--buffer N] \
             [--chaos-seed N] [--chaos-drop P] [--chaos-dup P] [--chaos-reorder P] \
             [--chaos-corrupt P] [--chaos-window N] [--chaos-latency-min N] \
             [--chaos-latency-max N] [--deadline-ms N] [--retries N] [--backoff-ms N] \
             [--min-quorum N] [--checkpoint-dir PATH] [--checkpoint-every N] [--resume] \
             [--die-after N]"
        );
        std::process::exit(2);
    });

    let config = Arc::new(transport_config_with_rounds(
        args.clients,
        args.seed,
        args.quick,
        args.rounds,
    ));
    let fleet = Arc::new(build_experiment_clients(&config)?);
    let factory = Arc::new(model_factory(ModelKind::FlNet, config.model_scale));
    let secure = args.secure.then(SecureConfig::default);
    eprintln!(
        "coordinator: {} clients over {:?}, async {:?}{}{}",
        fleet.len(),
        args.transport,
        args.r#async,
        if args.secure { ", secure" } else { "" },
        if args.chaos.is_noop() { "" } else { ", chaos" }
    );

    let mut children = Vec::new();
    let outcome = match args.transport {
        TransportKind::Channel => {
            let links = local_links(&fleet, &factory, &config.fed, secure)?;
            run_schedule(links, &fleet, &factory, &config, &args)?
        }
        TransportKind::Uds => {
            let listener = UdsListener::bind(&args.socket)?;
            if args.clients_procs > 0 {
                children = spawn_clients(&args, args.clients_procs)?;
            }
            serve_thread_clients(&args, &fleet, &factory, &config, secure);
            let links = accept_fleet(&listener, fleet.len())?;
            let outcome = if args.r#async == AsyncMode::Wall {
                let mut send_links = links
                    .iter()
                    .map(UdsTransport::duplicate)
                    .collect::<Result<Vec<_>, _>>()?;
                let mut fan = FanIn::new(links);
                let (run, records) = run_fedasync_wall(
                    &fleet,
                    &factory,
                    &config.fed,
                    &args.schedule(),
                    &mut send_links,
                    &mut fan,
                )?;
                let title = "Async schedule (wall clock — NOT reproducible)";
                println!("{}", render_async_history(title, &records));
                run.outcome
            } else {
                run_schedule(links, &fleet, &factory, &config, &args)?
            };
            let _ = std::fs::remove_file(&args.socket);
            outcome
        }
    };

    let table = TableResult {
        model: ModelKind::FlNet,
        n_clients: fleet.len(),
        rows: vec![outcome],
    };
    println!("{}", render_table(&table));

    for mut child in children {
        let status = child.wait()?;
        if !status.success() {
            return Err(format!("a client process exited with {status}").into());
        }
    }
    Ok(())
}
