//! **Feature ablation (§4.4)**: the paper selects cell-density and
//! wire-density features following RouteNet/PROS practice. This ablation
//! measures each channel's contribution: FLNet is trained centrally with
//! one channel zeroed at a time, and the AUC drop relative to the full
//! feature set is reported.

use rte_bench::BenchArgs;
use rte_core::build_clients;
use rte_eda::corpus::generate_corpus;
use rte_eda::features::FEATURE_CHANNELS;
use rte_fed::{methods, Method, ModelFactory};
use rte_nn::models::{FlNet, FlNetConfig};
use rte_nn::{Layer, NnError, Param};
use rte_tensor::rng::Xoshiro256;
use rte_tensor::Tensor;

const CHANNEL_NAMES: [&str; FEATURE_CHANNELS] = [
    "cell density",
    "pin density",
    "macro blockage",
    "RUDY",
    "H fly-lines (dir. RUDY)",
    "V fly-lines (dir. RUDY)",
];

/// Wraps a model, zeroing one input channel before every forward pass —
/// equivalent to removing that feature at train *and* test time.
struct ChannelMask<M: Layer> {
    inner: M,
    masked: Option<usize>,
}

impl<M: Layer> Layer for ChannelMask<M> {
    fn forward(&mut self, x: &Tensor, training: bool) -> Result<Tensor, NnError> {
        match self.masked {
            None => self.inner.forward(x, training),
            Some(ch) => {
                let mut masked = x.clone();
                let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
                let hw = h * w;
                for ni in 0..n {
                    let base = (ni * c + ch) * hw;
                    masked.data_mut()[base..base + hw].fill(0.0);
                }
                self.inner.forward(&masked, training)
            }
        }
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor, NnError> {
        self.inner.backward(dy)
    }

    fn backward_params(&mut self, dy: &Tensor) -> Result<(), NnError> {
        self.inner.backward_params(dy)
    }

    fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(String, &mut Param)) {
        self.inner.visit_params(prefix, f);
    }

    fn visit_buffers(&mut self, prefix: &str, f: &mut dyn FnMut(String, &mut Tensor)) {
        self.inner.visit_buffers(prefix, f);
    }
}

fn masked_factory(masked: Option<usize>) -> ModelFactory {
    Box::new(move |seed| {
        let mut rng = Xoshiro256::seed_from(seed);
        let cfg = FlNetConfig {
            in_channels: FEATURE_CHANNELS,
            hidden: 16,
            kernel: 9,
            depth: 2,
        };
        Box::new(ChannelMask {
            inner: FlNet::new(cfg, &mut rng),
            masked,
        })
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = BenchArgs::parse();
    let config = args.experiment_config();
    eprintln!("generating corpus …");
    let corpus = generate_corpus(&config.corpus)?;
    let clients = build_clients(&corpus)?;

    println!("Feature ablation: centralized FLNet, one channel removed at a time\n");
    let full = methods::run_method(
        Method::Centralized,
        &clients,
        &masked_factory(None),
        &config.fed,
    )?;
    println!("{:<18} {:>9} {:>9}", "removed channel", "avg AUC", "drop");
    println!("{}", "-".repeat(40));
    println!("{:<18} {:>9.3} {:>9}", "(none)", full.average_auc, "-");
    let mut drops = Vec::new();
    for (ch, name) in CHANNEL_NAMES.iter().enumerate() {
        let outcome = methods::run_method(
            Method::Centralized,
            &clients,
            &masked_factory(Some(ch)),
            &config.fed,
        )?;
        let drop = full.average_auc - outcome.average_auc;
        println!("{name:<18} {:>9.3} {:>+9.3}", outcome.average_auc, -drop);
        drops.push((name, drop));
    }
    drops.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    println!(
        "\nMost important channel: {} (drop {:.3}).",
        drops[0].0, drops[0].1
    );
    println!(
        "Shape to note (§4.4): the wire-density features (RUDY, fly-lines)\n\
         should matter most — they are the direct precursors of congestion."
    );
    Ok(())
}
