//! **Cost analysis (§4.3 trade-off)**: the paper motivates its
//! personalization menu by cost — fine-tuning buys accuracy with extra
//! local training, α-portion sync with extra server aggregations only,
//! FedProx-LG actually *saves* bandwidth. This binary prints the analytic
//! communication/computation budget of every method for all three models
//! at the paper's hyper-parameters.

use rte_bench::BenchArgs;
use rte_eda::features::FEATURE_CHANNELS;
use rte_fed::cost::{method_cost, model_params, MethodCost};
use rte_fed::Method;
use rte_nn::models::{build_model, ModelKind, ModelScale};
use rte_tensor::rng::Xoshiro256;

fn human_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.1} GiB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.1} MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KiB", b as f64 / (1u64 << 10) as f64)
    } else {
        format!("{b} B")
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = BenchArgs::parse(env!("CARGO_BIN_NAME"));
    let config = args.experiment_config();
    let scale = if args.paper_scale {
        ModelScale::Paper
    } else {
        ModelScale::Scaled
    };
    let k = config.client_specs()?.len() as u64;

    for kind in ModelKind::ALL {
        let mut rng = Xoshiro256::seed_from(0);
        let mut model = build_model(kind, FEATURE_CHANNELS, scale, &mut rng);
        let params = model_params(model.as_mut());
        // FedProx-LG keeps the output layer local.
        let mut local_part = 0u64;
        model.visit_params("", &mut |name, p| {
            if name.starts_with("output_conv") {
                local_part += p.value.numel() as u64;
            }
        });
        println!(
            "\n{kind}: {params} communicated scalars ({} per model copy), output layer {local_part}",
            human_bytes(params * 4)
        );
        println!(
            "{:<28} {:>12} {:>12} {:>12} {:>8}",
            "Method", "upload", "download", "local steps", "aggs"
        );
        println!("{}", "-".repeat(78));
        for method in Method::ALL {
            let cost: MethodCost = method_cost(method, params, local_part, k, &config.fed);
            println!(
                "{:<28} {:>12} {:>12} {:>12} {:>8}",
                method.label(),
                human_bytes(cost.upload_params * 4),
                human_bytes(cost.download_params * 4),
                cost.local_steps,
                cost.aggregations
            );
        }
    }
    println!(
        "\nShape to note (§4.3): fine-tuning pays only in local steps; α-portion\n\
         sync pays only in server aggregations; FedProx-LG communicates less than\n\
         FedProx; IFCA's downloads scale with the cluster count C."
    );
    Ok(())
}
