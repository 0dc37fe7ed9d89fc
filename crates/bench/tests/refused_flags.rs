//! Every harness binary either honours a shared flag or refuses it: each
//! `BenchArgs` flag, handed to each binary's parser, must change the part
//! of the `ExperimentConfig` the binary's run reads, or come back as an
//! error naming the binary and the flag (which `BenchArgs::parse` turns into
//! exit 2 before any corpus is generated). Parsing runs in this process,
//! so no binary is started.

use std::collections::BTreeSet;

use rte_bench::{BenchArgs, FLAGS, REFUSED_FLAGS};

/// Each flag with a valid value, after the flags it needs: the flag
/// itself starts at the returned position.
fn invocation(flag: &str) -> (Vec<&str>, usize) {
    let (args, own): (&[&str], usize) = match flag {
        "--paper-scale" | "--quick" => (&[flag], 0),
        "--seed" => (&["--seed", "7"], 0),
        "--rounds" => (&["--rounds", "3"], 0),
        "--data-scale" => (&["--data-scale", "0.5"], 0),
        "--threads" => (&["--threads", "3"], 0),
        "--corpus-dir" => (&["--corpus-dir", "shards"], 0),
        "--stream-chunk" => (&["--corpus-dir", "shards", "--stream-chunk", "5"], 2),
        "--mmap" => (&["--corpus-dir", "shards", "--mmap"], 2),
        "--compress-shards" => (&["--corpus-dir", "shards", "--compress-shards"], 2),
        "--clients" => (&["--clients", "5"], 0),
        "--designs" => (&["--clients", "5", "--designs", "30"], 2),
        other => panic!("no invocation for {other}: add one"),
    };
    (args.to_vec(), own)
}

fn parse(binary: &str, args: &[&str]) -> Result<BenchArgs, String> {
    BenchArgs::parse_for(binary, args.iter().map(|s| s.to_string()))
}

/// The part of the configuration `args` select that `binary`'s run
/// reads, as text (`ExperimentConfig` has no `PartialEq`; `Debug` shows
/// every field).
fn read_by(binary: &str, args: &BenchArgs) -> String {
    let c = args.experiment_config();
    match binary {
        // They report the generated fleet and train nothing.
        "table2_data_setup" | "analysis_heterogeneity" => format!(
            "{:?}",
            (
                &c.corpus,
                c.corpus_parallelism,
                &c.corpus_dir,
                c.stream_chunk,
                c.shard_backend,
                c.compress_shards,
                &c.population,
            )
        ),
        // Analytic costs: the fleet size, the schedule and the model.
        "analysis_comm_cost" => format!(
            "{:?}",
            (
                c.client_specs().unwrap().len(),
                (c.fed.rounds, c.fed.local_steps, c.fed.finetune_steps),
                (c.fed.clusters, c.fed.assigned_clusters.len()),
                c.model_scale,
            )
        ),
        _ => format!("{c:?}"),
    }
}

#[test]
fn every_flag_changes_the_config_or_is_refused_by_every_binary() {
    let before = rte_tensor::parallel::global();
    for &(binary, refused) in REFUSED_FLAGS {
        for &flag in FLAGS {
            let (args, own) = invocation(flag);
            if refused.contains(&flag) {
                // Refused on sight, alone or after the flags it needs.
                let alone = parse(binary, &args[own..]).expect_err(flag);
                assert!(alone.contains(binary), "{binary} {flag}: {alone}");
                assert!(alone.contains(flag), "{binary} {flag}: {alone}");
                assert!(parse(binary, &args).is_err(), "{binary} {flag}");
                continue;
            }
            let with = parse(binary, &args).unwrap_or_else(|e| panic!("{binary} {flag}: {e}"));
            let without = parse(binary, &args[..own]).unwrap();
            assert_ne!(
                read_by(binary, &with),
                read_by(binary, &without),
                "{binary} accepts {flag} but nothing its run reads changes"
            );
        }
    }
    rte_tensor::parallel::set_global(before);
}

#[test]
fn every_binary_has_one_row_and_rows_name_real_flags() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin");
    let binaries: BTreeSet<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    let rows: Vec<&str> = REFUSED_FLAGS.iter().map(|(b, _)| *b).collect();
    let unique: BTreeSet<String> = rows.iter().map(|b| b.to_string()).collect();
    assert_eq!(unique.len(), rows.len(), "a binary has two rows");
    assert_eq!(unique, binaries);
    for (binary, refused) in REFUSED_FLAGS {
        for flag in *refused {
            assert!(FLAGS.contains(flag), "{binary} refuses unknown {flag}");
        }
    }
    assert!(parse("no_such_binary", &[]).is_err());
}

#[test]
fn shard_flags_need_a_corpus_dir_for_every_binary() {
    for (binary, _) in REFUSED_FLAGS {
        for args in [
            &["--stream-chunk", "4"][..],
            &["--mmap"][..],
            &["--compress-shards"][..],
        ] {
            assert!(parse(binary, args).is_err(), "{binary} {args:?}");
        }
    }
}
