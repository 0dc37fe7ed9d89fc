//! Report rendering in the paper's table layout.
//!
//! Tables 3-5 are "Testing on Client 1 … Client 9 | Average" with one row
//! per training method; [`render_table`] reproduces that layout as
//! monospace text so a bench run can be diffed against the paper at a
//! glance. Every method outcome now carries a full
//! [`EvalReport`] per client, so [`render_metric_table`] renders the
//! same grid for any companion metric (average precision, accuracy at
//! the paper's 0.5 deployment threshold, …).

use rte_fed::{EvalReport, MethodOutcome, ScenarioOutcome};

use crate::TableResult;

/// Renders one table in the paper's layout: the AUC projection of the
/// per-client reports.
pub fn render_table(table: &TableResult) -> String {
    render_metric_table(
        table,
        &format!(
            "Testing Accuracy Comparison (ROC AUC) on Routability Prediction with {}",
            table.model
        ),
        |r| r.auc,
    )
}

/// Renders one method row: label, per-client AUCs, average.
pub fn render_row(outcome: &MethodOutcome) -> String {
    let mut line = format!("{:<34}", outcome.method.label());
    for auc in &outcome.per_client_auc {
        line.push_str(&format!("  {auc:<5.2}"));
    }
    line.push_str(&format!("  {:<7.2}", outcome.average_auc));
    line
}

/// Renders the per-client grid of an arbitrary [`EvalReport`] projection
/// in the paper's table layout — the companion view of [`render_table`]
/// for the metrics the paper does not print (average precision,
/// thresholded accuracy, …).
pub fn render_metric_table(
    table: &TableResult,
    title: &str,
    metric: impl Fn(&EvalReport) -> f64,
) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let mut header = format!("{:<34}", "Method");
    for k in 1..=table.n_clients {
        header.push_str(&format!("  C{k:<4}"));
    }
    header.push_str("  Average");
    out.push_str(&header);
    out.push('\n');
    out.push_str(&"-".repeat(header.len()));
    out.push('\n');
    for row in &table.rows {
        let mut line = format!("{:<34}", row.method.label());
        let mut sum = 0.0f64;
        for report in &row.per_client {
            let v = metric(report);
            sum += v;
            line.push_str(&format!("  {v:<5.2}"));
        }
        let avg = if row.per_client.is_empty() {
            0.0
        } else {
            sum / row.per_client.len() as f64
        };
        line.push_str(&format!("  {avg:<7.2}"));
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Renders one robustness grid (one attack): per-client outcomes of
/// every method × defense row, with diverged clients printed as `div`
/// cells and the average taken over the healthy clients only. The
/// `table6_robustness` bench prints one of these per attack; the output
/// is a pure function of the outcomes, so the determinism suite can pin
/// it byte-for-byte across thread counts and SIMD arms.
pub fn render_robustness_grid(title: &str, n_clients: usize, rows: &[ScenarioOutcome]) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let mut header = format!("{:<34}{:<9}", "Method", "Defense");
    for k in 1..=n_clients {
        header.push_str(&format!("  C{k:<4}"));
    }
    header.push_str("  Average  Diverged");
    out.push_str(&header);
    out.push('\n');
    out.push_str(&"-".repeat(header.len()));
    out.push('\n');
    for row in rows {
        let mut line = format!("{:<34}{:<9}", row.method.label(), row.aggregation.label());
        for cell in row.cell_aucs() {
            match cell {
                Some(v) => line.push_str(&format!("  {v:<5.2}")),
                None => line.push_str(&format!("  {:<5}", "div")),
            }
        }
        match row.healthy_average_auc() {
            Some(avg) => line.push_str(&format!("  {avg:<7.2}")),
            None => line.push_str(&format!("  {:<7}", "div")),
        }
        line.push_str(&format!("  {}", row.diverged().len()));
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Renders a per-round convergence series (round, average AUC) as an
/// ASCII table — the measurable counterpart of the paper's Fig. 1/2
/// schematics.
pub fn render_history(label: &str, outcome: &MethodOutcome) -> String {
    let mut out = format!("{label}: per-round average ROC AUC\n");
    if outcome.history.is_empty() {
        out.push_str("  (no per-round history recorded; set eval_every > 0)\n");
        return out;
    }
    for rec in &outcome.history {
        let bar_len = (rec.average_auc.clamp(0.0, 1.0) * 40.0).round() as usize;
        out.push_str(&format!(
            "  round {:>3}  auc {:.3}  loss {:.4}  {}\n",
            rec.round,
            rec.average_auc,
            rec.mean_train_loss,
            "#".repeat(bar_len)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rte_fed::{Method, RoundRecord};
    use rte_nn::models::ModelKind;

    /// An [`EvalReport`] whose AUC lands exactly on `auc` (built from a
    /// synthetic ranking, so all the companion fields are populated).
    fn report(auc: f64) -> EvalReport {
        // `n` correctly ranked pos/neg pairs out of 100: scores are two
        // blocks with `k` swapped pairs.
        let k = ((1.0 - auc) * 100.0).round() as usize;
        let mut scores = vec![0.0f32; 20];
        let mut labels = vec![false; 20];
        for (i, (s, l)) in scores.iter_mut().zip(labels.iter_mut()).enumerate() {
            // 10 positives at high scores, 10 negatives at low scores,
            // then demote positives pairwise to hit the target AUC.
            *l = i < 10;
            *s = if i < 10 { 0.9 } else { 0.1 };
        }
        for i in 0..k / 10 {
            scores[i] = 0.05; // each demoted positive loses 10 pairs
        }
        let r = EvalReport::from_scores(&scores, &labels).unwrap();
        assert!(
            (r.auc - auc).abs() < 0.051,
            "fixture AUC {} vs {auc}",
            r.auc
        );
        r
    }

    fn outcome() -> MethodOutcome {
        MethodOutcome::new(
            Method::FedProx,
            vec![report(0.9), report(0.7)],
            vec![RoundRecord::new(1, vec![report(0.6), report(0.6)], 0.25)],
        )
    }

    #[test]
    fn table_contains_all_parts() {
        let table = TableResult {
            model: ModelKind::FlNet,
            rows: vec![outcome()],
            n_clients: 2,
        };
        let text = render_table(&table);
        assert!(text.contains("FLNet"));
        assert!(text.contains("C1"));
        assert!(text.contains("Average"));
        assert!(text.contains("FedProx"));
        assert!(text.contains("0.90"));
        assert!(text.contains("0.80"));
    }

    #[test]
    fn metric_table_projects_reports() {
        let table = TableResult {
            model: ModelKind::FlNet,
            rows: vec![outcome()],
            n_clients: 2,
        };
        let text = render_metric_table(&table, "Average precision", |r| r.average_precision);
        assert!(text.contains("Average precision"));
        assert!(text.contains("C2"));
        assert!(text.contains("FedProx"));
        let acc = render_metric_table(&table, "Accuracy @ 0.5", |r| r.confusion.accuracy());
        assert!(acc.contains("Accuracy @ 0.5"));
        // The fixture thresholds cleanly, so accuracies are on [0, 1].
        for row in &table.rows {
            for rep in &row.per_client {
                assert!((0.0..=1.0).contains(&rep.confusion.accuracy()));
            }
        }
    }

    #[test]
    fn robustness_grid_renders_divergence() {
        use rte_fed::{Aggregation, FedError};
        let rows = vec![
            ScenarioOutcome {
                method: Method::FedProx,
                aggregation: Aggregation::WeightedMean,
                cells: vec![
                    Ok(report(0.9)),
                    Err(FedError::ClientDiverged {
                        client: 1,
                        reason: "scores contain NaN".into(),
                    }),
                ],
            },
            ScenarioOutcome {
                method: Method::FedProx,
                aggregation: Aggregation::Median,
                cells: vec![Ok(report(0.9)), Ok(report(0.7))],
            },
        ];
        let text = render_robustness_grid("Robustness under sign-flip", 2, &rows);
        assert!(text.contains("Robustness under sign-flip"));
        assert!(text.contains("Defense"));
        assert!(text.contains("Diverged"));
        assert!(text.contains("mean"));
        assert!(text.contains("median"));
        assert!(text.contains("div"), "diverged cell marker");
        // Mean row averages over its single healthy client.
        assert!(text.contains("0.90"));
        let mean_line = text
            .lines()
            .find(|l| l.contains("mean") && !l.contains("median"))
            .unwrap();
        assert!(mean_line.trim_end().ends_with('1'), "{mean_line:?}");
    }

    #[test]
    fn history_renders_bars() {
        let text = render_history("FedProx", &outcome());
        assert!(text.contains("round   1"));
        assert!(text.contains("auc 0.600"));
        assert!(text.contains("####"));
    }

    #[test]
    fn empty_history_is_flagged() {
        let mut o = outcome();
        o.history.clear();
        let text = render_history("x", &o);
        assert!(text.contains("no per-round history"));
    }
}
