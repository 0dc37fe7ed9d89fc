//! **Heterogeneity analysis (§3 premise)**: the paper's problem setting
//! rests on clients holding statistically different data ("designs from
//! the same client tend to be more similar to each other"). This binary
//! quantifies that premise on the generated corpus: per-client feature
//! statistics, pairwise client distances, and the intra- vs inter-family
//! contrast that drives every federated result in Tables 3-5.

use rte_bench::BenchArgs;
use rte_core::build_experiment_clients;
use rte_eda::features::FEATURE_CHANNELS;

const CHANNEL_NAMES: [&str; FEATURE_CHANNELS] = [
    "cell density",
    "pin density",
    "macro blockage",
    "RUDY",
    "H fly-lines (dir. RUDY)",
    "V fly-lines (dir. RUDY)",
];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = BenchArgs::parse(env!("CARGO_BIN_NAME"));
    let config = args.experiment_config();
    let specs = config.client_specs()?;
    eprintln!("building clients …");
    let clients = build_experiment_clients(&config)?;

    // Per-client mean feature vector (over training tiles).
    let mut means: Vec<Vec<f64>> = Vec::new();
    println!("Per-client mean feature values (training split):");
    print!("{:<10}", "client");
    for name in CHANNEL_NAMES {
        print!(" {name:>14}");
    }
    println!(" {:>9}", "hotspot%");
    for client in &clients {
        let (_, h, w) = client.train.geometry();
        let hw = h * w;
        // The split is read `stream_chunk` samples at a time, each sample
        // added in order, so no more than a chunk is resident at once.
        let (mut sums, mut hot) = ([0.0f64; FEATURE_CHANNELS], 0usize);
        let len = client.train.len();
        for start in (0..len).step_by(config.stream_chunk.max(1)) {
            let end = len.min(start + config.stream_chunk.max(1));
            let (features, labels) = client.train.minibatch_range(start..end);
            for sample in features.data().chunks_exact(FEATURE_CHANNELS * hw) {
                for (c, plane) in sample.chunks_exact(hw).enumerate() {
                    sums[c] += plane.iter().map(|&v| v as f64).sum::<f64>();
                }
            }
            // `hotspot_rate`'s count, kept across chunks.
            hot += labels.data().iter().filter(|&&v| v > 0.5).count();
        }
        let tiles = len * hw;
        let mean: Vec<f64> = sums.iter().map(|s| s / tiles as f64).collect();
        print!("C{:<9}", client.id);
        for v in &mean {
            print!(" {v:>14.4}");
        }
        let rate = if tiles == 0 {
            0.0
        } else {
            hot as f64 / tiles as f64
        };
        println!(" {:>8.1}%", 100.0 * rate);
        means.push(mean);
    }

    // Pairwise distance matrix.
    let dist = |a: &[f64], b: &[f64]| -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    };
    println!("\nPairwise client distance (L2 over mean features, ×1000):");
    print!("{:<5}", "");
    for client in &clients {
        print!(" {:>6}", format!("C{}", client.id));
    }
    println!();
    for (client, a) in clients.iter().zip(&means) {
        print!("C{:<4}", client.id);
        for b in &means {
            print!(" {:>6.1}", 1000.0 * dist(a, b));
        }
        println!();
    }

    // Intra-family vs inter-family contrast.
    let mut intra = Vec::new();
    let mut inter = Vec::new();
    for i in 0..clients.len() {
        for j in i + 1..clients.len() {
            let d = dist(&means[i], &means[j]);
            if specs[i].family == specs[j].family {
                intra.push(d);
            } else {
                inter.push(d);
            }
        }
    }
    let mean_of = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let (mi, me) = (mean_of(&intra), mean_of(&inter));
    println!(
        "\nmean intra-family distance: {:.4}\nmean inter-family distance: {:.4}\nratio: {:.2}×",
        mi,
        me,
        me / mi.max(1e-12)
    );
    println!(
        "\nShape to note (§3): inter-family distance must exceed intra-family —\n\
         this is the client-level heterogeneity that breaks naive FedAvg and\n\
         motivates FedProx, clustering and personalization."
    );
    Ok(())
}
