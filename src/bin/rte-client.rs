//! Federated client: one party of the decentralized fleet, as its own
//! process.
//!
//! The client rebuilds the *entire* experiment config from the shared
//! `(clients, seed, quick)` triple, generates only its own private
//! train/test split locally (`build_experiment_client`: nobody else's
//! designs are synthesized in this process), connects to the
//! coordinator's Unix-domain socket, and then answers deploy frames with
//! locally trained parameter sets until the coordinator shuts the
//! session down. Data
//! never leaves the process — the paper's privacy boundary, enforced by
//! a process boundary.
//!
//! Connection handling runs through a seeded [`RetryPolicy`]: the
//! initial dial retries with jittered backoff (the coordinator may
//! still be binding the socket), and a mid-run hang-up triggers a
//! reconnect + re-hello — every deploy carries its own round number, so
//! the session resyncs to whatever round the coordinator re-sends.
//!
//! Spawned by `rte-coordinator --clients-procs N`, or started by hand:
//!
//! ```text
//! rte-client --socket /tmp/fed.sock --client-index 3 --clients 8 --quick --seed 42
//! ```

use std::path::PathBuf;

use decentralized_routability::core::{
    build_experiment_client, model_factory, transport_config_with_rounds,
};
use decentralized_routability::fed::{ClientSession, SecureConfig};
use decentralized_routability::net::{RetryPolicy, UdsTransport};
use decentralized_routability::nn::models::ModelKind;

struct Args {
    socket: PathBuf,
    client_index: usize,
    clients: usize,
    quick: bool,
    seed: u64,
    rounds: Option<usize>,
    secure: bool,
    retries: u32,
    backoff_ms: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut socket = None;
    let mut client_index = None;
    let mut out = Args {
        socket: PathBuf::new(),
        client_index: 0,
        clients: 4,
        quick: false,
        seed: 7,
        rounds: None,
        secure: false,
        retries: 100,
        backoff_ms: 50,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => socket = Some(PathBuf::from(it.next().ok_or("--socket needs a path")?)),
            "--client-index" => {
                let v = it.next().ok_or("--client-index needs a value")?;
                client_index = Some(v.parse().map_err(|_| format!("bad index {v}"))?);
            }
            "--clients" => {
                let v = it.next().ok_or("--clients needs a value")?;
                out.clients = v.parse().map_err(|_| format!("bad client count {v}"))?;
            }
            "--quick" => out.quick = true,
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                out.seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
            }
            "--rounds" => {
                let v = it.next().ok_or("--rounds needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad round count {v}"))?;
                if n == 0 {
                    return Err("--rounds must be positive".into());
                }
                out.rounds = Some(n);
            }
            "--secure" => out.secure = true,
            "--retries" => {
                let v = it.next().ok_or("--retries needs a value")?;
                out.retries = v.parse().map_err(|_| format!("bad retry count {v}"))?;
            }
            "--backoff-ms" => {
                let v = it.next().ok_or("--backoff-ms needs a value")?;
                out.backoff_ms = v.parse().map_err(|_| format!("bad backoff {v}"))?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    out.socket = socket.ok_or("--socket is required")?;
    out.client_index = client_index.ok_or("--client-index is required")?;
    if out.client_index >= out.clients {
        return Err(format!(
            "--client-index {} out of range for {} clients",
            out.client_index, out.clients
        ));
    }
    Ok(out)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!(
            "usage: rte-client --socket PATH --client-index K [--clients N] [--quick] \
             [--seed N] [--rounds N] [--secure] [--retries N] [--backoff-ms N]"
        );
        std::process::exit(2);
    });

    let config = transport_config_with_rounds(args.clients, args.seed, args.quick, args.rounds);
    let me = args.client_index;
    let client = build_experiment_client(&config, me)?;
    let factory = model_factory(ModelKind::FlNet, config.model_scale);
    let secure = args.secure.then(SecureConfig::default);
    let mut session = ClientSession::for_client(&client, me, &factory, &config.fed, secure)?;

    // Jittered backoff salted by the client index so a spawned fleet
    // does not dial (or re-dial) in lockstep.
    let policy = RetryPolicy {
        max_attempts: args.retries.max(1),
        base_ms: args.backoff_ms,
        max_ms: args.backoff_ms.saturating_mul(16).max(1),
        jitter_seed: args.seed,
    };
    session.serve_with_reconnect(&policy, |_attempt| UdsTransport::connect(&args.socket))?;
    Ok(())
}
