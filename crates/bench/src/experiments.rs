//! One experiment per table and figure of the paper's evaluation, plus
//! the DESIGN.md ablations and four systems harnesses. Every experiment
//! renders a self-contained text report; the `repro` binary prints them
//! and `EXPERIMENTS.md` records a reference run.
//!
//! The paper experiments end in paper-vs-measured comparison lines. The
//! systems harnesses (`chaos-sweep`, `overload-sweep`,
//! `subscriber-scaling`) end in `budget:` lines instead: their targets
//! are this repository's, not the paper's. So do the ablations,
//! `generalization` and `obfuscation`, whose targets are claims the
//! paper only implies or conjectures. `setup-split` times the
//! model set-up stage by stage. Every other speed figure comes from
//! qoebench (`crates/bench/src/bin/qoebench`), the one speed harness.

use crate::context::ReproContext;
use crate::render::{
    budget_line, compare_line, render_cdf, render_cdf_pair, render_class_report, render_confusion,
    Table,
};
use vqoe_core::{train_detector, EncryptedWorld, ForestModel, SessionAssessment, TrainConfig};
use vqoe_features::labels::has_switches;
use vqoe_features::{
    build_dataset, FeatureSpace, RepresentationSpace, SessionObs, StallClass, StallSpace,
};
use vqoe_ml::{cross_validate, ConfusionMatrix, Dataset, ForestConfig};
use vqoe_player::{ContentType, SessionTrace};
use vqoe_stats::Ecdf;
use vqoe_telemetry::{match_sessions, SessionSpan};

/// One experiment: its report, rendered from the shared context.
type Experiment = fn(&ReproContext) -> String;

/// Every experiment by id, in paper order: the one list both
/// [`EXPERIMENTS`] and [`run_experiment`] read.
const TABLE: [(&str, Experiment); 27] = [
    ("tab1", |_| tab1()),
    ("fig1", fig1),
    ("fig2", fig2),
    ("fig3", fig3),
    ("tab2", tab2),
    ("tab3", tab3),
    ("tab4", tab4),
    ("tab5", tab5),
    ("tab6", tab6),
    ("tab7", tab7),
    ("fig4", fig4),
    ("fig5", fig5),
    ("tab8", tab8),
    ("tab9", tab9),
    ("tab10", tab10),
    ("tab11", tab11),
    ("sec56", sec56),
    ("ablation-features", ablation_features),
    ("ablation-cusum", ablation_cusum),
    ("ablation-reassembly", ablation_reassembly),
    ("baseline-binary", baseline_binary),
    ("generalization", generalization),
    ("obfuscation", obfuscation),
    ("chaos-sweep", chaos_sweep),
    ("overload-sweep", overload_sweep),
    ("setup-split", |_| setup_split()),
    ("subscriber-scaling", subscriber_scaling),
];

/// All experiment identifiers, in paper order.
pub const EXPERIMENTS: [&str; 27] = {
    let mut ids = [""; 27];
    let mut i = 0;
    while i < ids.len() {
        ids[i] = TABLE[i].0;
        i += 1;
    }
    ids
};

/// Run one experiment by id. Unknown ids return an error string listing
/// the known ones.
pub fn run_experiment(id: &str, ctx: &ReproContext) -> String {
    match TABLE.iter().find(|(known, _)| *known == id) {
        Some((_, run)) => run(ctx),
        None => format!(
            "unknown experiment '{id}'. known: {}\n",
            EXPERIMENTS.join(", ")
        ),
    }
}

fn header(id: &str, title: &str) -> String {
    format!("\n=== {id}: {title} ===\n\n")
}

// ---------------------------------------------------------------- tab1

fn tab1() -> String {
    let mut out = header("tab1", "metrics extracted from the operator's weblogs");
    let mut t = Table::new(vec![
        "Network features (clear + encrypted)",
        "Ground truth (URIs, cleartext only)",
    ]);
    let rows = [
        ("minimum RTT", "chunk resolution (itag)"),
        ("average RTT", "stall count (playback reports)"),
        ("maximum RTT", "stall duration (playback reports)"),
        ("bandwidth-delay product", "video session ID (cpn)"),
        ("average bytes-in-flight", ""),
        ("maximum bytes-in-flight", ""),
        ("% packet loss", ""),
        ("% packet retransmissions", ""),
        ("chunk size", ""),
        ("chunk time", ""),
    ];
    for (l, r) in rows {
        t.row(vec![l, r]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nThe left column is available for every flow; the right column only\n\
         for cleartext sessions — it is the training-phase ground truth\n\
         (vqoe_telemetry::groundtruth implements the extraction).\n",
    );
    out
}

// ---------------------------------------------------------------- fig1

/// Find an adaptive session with at least one stall and enough chunks to
/// show the recovery dynamics.
fn find_stalled_session(traces: &[SessionTrace]) -> Option<&SessionTrace> {
    traces
        .iter()
        .filter(|t| t.config.delivery.is_adaptive())
        .filter(|t| t.ground_truth.stall_count() >= 1 && t.chunks.len() >= 24)
        .max_by_key(|t| t.ground_truth.stall_count())
}

fn fig1(ctx: &ReproContext) -> String {
    let mut out = header("fig1", "chunk sizes in a video session with stalls");
    let Some(session) = find_stalled_session(&ctx.fit.adaptive) else {
        return out + "no stalled adaptive session in the corpus (increase --sessions)\n";
    };
    let t0 = session.config.start_time;
    let stalls = &session.ground_truth.stalls;
    let mut t = Table::new(vec!["t (s)", "chunk size (KB)", "", "note"]);
    for c in session
        .chunks
        .iter()
        .filter(|c| c.content_type == ContentType::Video)
    {
        let rel = c.arrival_time.duration_since(t0).as_secs_f64();
        let kb = c.bytes as f64 / 1024.0;
        let bar = "#".repeat(((kb / 40.0).round() as usize).min(60));
        let in_recovery = stalls.iter().any(|s| {
            let s0 = s.start.duration_since(t0).as_secs_f64();
            let s1 = s0 + s.duration.as_secs_f64();
            rel >= s0 && rel <= s1 + 10.0
        });
        let note = if in_recovery {
            "<- stall / recovery"
        } else {
            ""
        };
        t.row(vec![
            format!("{rel:.1}"),
            format!("{kb:.0}"),
            bar,
            note.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nsession: {} stalls, {:.1}s stalled, RR = {:.3}\n",
        session.ground_truth.stall_count(),
        session.ground_truth.total_stall_time().as_secs_f64(),
        session.ground_truth.rebuffering_ratio()
    ));
    out.push_str(&compare_line(
        "chunk-size collapse at stall, ramp after recovery",
        "qualitative (Fig. 1)",
        "visible above",
    ));
    out
}

// ---------------------------------------------------------------- fig2

fn fig2(ctx: &ReproContext) -> String {
    let mut out = header("fig2", "ECDF of stalls per session and rebuffering ratio");
    let cleartext = ctx.fit.cleartext();
    let stall_counts: Vec<f64> = cleartext
        .iter()
        .map(|t| t.ground_truth.stall_count() as f64)
        .collect();
    let rr: Vec<f64> = cleartext
        .iter()
        .map(|t| t.ground_truth.rebuffering_ratio())
        .collect();
    let n = cleartext.len() as f64;
    let with_stalls = stall_counts.iter().filter(|&&c| c > 0.0).count() as f64 / n;
    let multi = stall_counts.iter().filter(|&&c| c > 1.0).count() as f64 / n;
    let severe = rr.iter().filter(|&&r| r > 0.1).count() as f64 / n;

    out.push_str(&render_cdf(
        "ECDF: number of stalls per session",
        "stalls",
        &Ecdf::new(&stall_counts).steps(),
        10,
    ));
    out.push('\n');
    let rr_nonzero: Vec<f64> = rr.iter().copied().filter(|&r| r > 0.0).collect();
    out.push_str(&render_cdf(
        "ECDF: rebuffering ratio (sessions with RR > 0)",
        "RR",
        &Ecdf::new(&rr_nonzero).steps(),
        10,
    ));
    out.push('\n');
    out.push_str(&compare_line(
        "% sessions with >=1 stall",
        "~12%",
        &format!("{:.1}%", with_stalls * 100.0),
    ));
    out.push_str(&compare_line(
        "% sessions with >1 stall",
        "~8%",
        &format!("{:.1}%", multi * 100.0),
    ));
    out.push_str(&compare_line(
        "% sessions with RR > 0.1 (severe)",
        "~10% of RR distribution",
        &format!("{:.1}% of all sessions", severe * 100.0),
    ));
    out
}

// ---------------------------------------------------------------- fig3

fn fig3(ctx: &ReproContext) -> String {
    let mut out = header("fig3", "Δt and Δsize around a representation switch");
    // Find a session with a clean up-switch and no stalls.
    let session = ctx
        .fit
        .adaptive
        .iter()
        .filter(|t| t.ground_truth.stall_count() == 0 && t.chunks.len() >= 20)
        .find(|t| {
            let res = &t.ground_truth.segment_resolutions;
            res.windows(2).any(|w| w[1] > w[0] && w[0] >= 240)
        });
    let Some(session) = session else {
        return out + "no suitable switching session found (increase --sessions)\n";
    };
    let t0 = session.config.start_time;
    let video: Vec<&vqoe_player::ChunkRecord> = session
        .chunks
        .iter()
        .filter(|c| c.content_type == ContentType::Video)
        .collect();
    let mut t = Table::new(vec![
        "t (s)",
        "resolution",
        "size (KB)",
        "Δt (s)",
        "Δsize (KB)",
    ]);
    for (i, c) in video.iter().enumerate() {
        let rel = c.arrival_time.duration_since(t0).as_secs_f64();
        let (dt, dsize) = if i == 0 {
            (0.0, 0.0)
        } else {
            (
                c.arrival_time
                    .duration_since(video[i - 1].arrival_time)
                    .as_secs_f64(),
                (c.bytes as f64 - video[i - 1].bytes as f64).abs() / 1024.0,
            )
        };
        t.row(vec![
            format!("{rel:.1}"),
            format!("{}p", c.itag.expect("video chunk").resolution()),
            format!("{:.0}", c.bytes as f64 / 1024.0),
            format!("{dt:.2}"),
            format!("{dsize:.0}"),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&compare_line(
        "Δsize and Δt spike at the representation switch",
        "qualitative (Fig. 3)",
        "visible above",
    ));
    out
}

// ---------------------------------------------------------------- tab2

fn tab2(ctx: &ReproContext) -> String {
    let mut out = header("tab2", "stall-model features and information gains");
    let importance = ctx.stall.model.forest.feature_importance();
    let mut t = Table::new(vec!["info. gain", "forest MDI", "feature"]);
    for (i, r) in ctx.stall.selected.iter().enumerate() {
        t.row(vec![
            format!("{:.3}", r.gain),
            format!("{:.3}", importance.get(i).copied().unwrap_or(0.0)),
            r.name.clone(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\n(info. gain = model-free univariate score, the paper's Table 2 metric;\n\
         forest MDI = mean decrease in impurity, what the trained forest used)\n\n",
    );
    out.push_str(&compare_line(
        "top features are chunk-size statistics",
        "chunk size min 0.45, std 0.25",
        &ctx.stall
            .selected
            .iter()
            .take(2)
            .map(|r| format!("{} {:.2}", r.name, r.gain))
            .collect::<Vec<_>>()
            .join(", "),
    ));
    out.push_str(&compare_line(
        "BDP and retransmissions follow",
        "BDP mean 0.18, retx max 0.12",
        &ctx.stall
            .selected
            .iter()
            .filter(|r| r.name.contains("BDP") || r.name.contains("retransmissions"))
            .take(2)
            .map(|r| format!("{} {:.2}", r.name, r.gain))
            .collect::<Vec<_>>()
            .join(", "),
    ));
    out
}

// ------------------------------------------------------------ tab3/tab4

fn tab3(ctx: &ReproContext) -> String {
    let mut out = header("tab3", "stall classifier, 10-fold CV on cleartext");
    out.push_str(&render_class_report(&ctx.stall.cv_matrix));
    if let Some(oob) = ctx.stall.model.forest.oob_accuracy {
        out.push_str(&format!(
            "\n(out-of-bag accuracy of the deployed forest on its balanced\n\
             training corpus: {oob:.3})\n"
        ));
    }
    out.push('\n');
    let counts = &ctx.stall.class_counts;
    let total: usize = counts.iter().sum();
    out.push_str(&format!(
        "corpus: {total} sessions ({} no / {} mild / {} severe)\n\n",
        counts[0], counts[1], counts[2]
    ));
    out.push_str(&compare_line(
        "overall accuracy",
        "93.5%",
        &format!("{:.1}%", ctx.stall.cv_matrix.accuracy() * 100.0),
    ));
    out.push_str(&compare_line(
        "per-class recall ordering",
        "no 0.977 > mild 0.809 > severe 0.793",
        &format!(
            "no {:.3} / mild {:.3} / severe {:.3}",
            ctx.stall.cv_matrix.tp_rate(0),
            ctx.stall.cv_matrix.tp_rate(1),
            ctx.stall.cv_matrix.tp_rate(2)
        ),
    ));
    out
}

fn tab4(ctx: &ReproContext) -> String {
    let mut out = header("tab4", "stall detection confusion matrix (CV)");
    out.push_str(&render_confusion(&ctx.stall.cv_matrix));
    out.push('\n');
    let m = &ctx.stall.cv_matrix;
    let pct = m.row_percentages();
    out.push_str(&compare_line(
        "errors concentrate no<->mild and mild<->severe",
        "no->severe 0.18%, severe->no 4.2%",
        &format!("no->severe {:.1}%, severe->no {:.1}%", pct[0][2], pct[2][0]),
    ));
    out
}

// ------------------------------------------------------------ tab5..7

fn tab5(ctx: &ReproContext) -> String {
    let mut out = header("tab5", "average-representation features and gains");
    let mut t = Table::new(vec!["info. gain", "feature"]);
    for r in &ctx.representation.selected {
        t.row(vec![format!("{:.3}", r.gain), r.name.clone()]);
    }
    out.push_str(&t.render());
    out.push('\n');
    let size_derived = ctx
        .representation
        .selected
        .iter()
        .filter(|r| r.name.contains("size"))
        .count();
    out.push_str(&compare_line(
        "size-derived features in the subset",
        "11 of 15 (Table 5)",
        &format!("{size_derived} of {}", ctx.representation.selected.len()),
    ));
    out
}

fn tab6(ctx: &ReproContext) -> String {
    let mut out = header("tab6", "average-representation classifier, 10-fold CV");
    out.push_str(&render_class_report(&ctx.representation.cv_matrix));
    out.push('\n');
    let counts = &ctx.representation.class_counts;
    let total: usize = counts.iter().sum();
    out.push_str(&format!(
        "adaptive corpus: {total} sessions ({} LD / {} SD / {} HD; paper 57/38/5%)\n\n",
        counts[0], counts[1], counts[2]
    ));
    out.push_str(&compare_line(
        "overall accuracy",
        "84.5%",
        &format!("{:.1}%", ctx.representation.cv_matrix.accuracy() * 100.0),
    ));
    out
}

fn tab7(ctx: &ReproContext) -> String {
    let mut out = header("tab7", "average-representation confusion matrix (CV)");
    out.push_str(&render_confusion(&ctx.representation.cv_matrix));
    out.push('\n');
    let pct = ctx.representation.cv_matrix.row_percentages();
    out.push_str(&compare_line(
        "SD->LD and HD->SD leakage (mid-session downscales)",
        "SD->LD 22.7%, HD->SD 18.2%",
        &format!("SD->LD {:.1}%, HD->SD {:.1}%", pct[1][0], pct[2][1]),
    ));
    out
}

// ---------------------------------------------------------------- fig4

fn fig4(ctx: &ReproContext) -> String {
    let mut out = header(
        "fig4",
        "CDF of σ(CUSUM(Δsize×Δt)) with vs without representation switches",
    );
    let switch = &ctx.fit.switch;
    let a = Ecdf::new(&switch.scores_without);
    let b = Ecdf::new(&switch.scores_with);
    out.push_str(&render_cdf_pair(
        "score distributions",
        "score",
        "no switches",
        &a,
        "with switches",
        &b,
        12,
    ));
    out.push('\n');
    out.push_str(&format!(
        "calibrated threshold: {:.1} (paper's threshold: 500, in its units)\n\n",
        switch.model.threshold()
    ));
    out.push_str(&compare_line(
        "no-switch sessions below threshold",
        "78%",
        &format!("{:.1}%", switch.acc_without * 100.0),
    ));
    out.push_str(&compare_line(
        "switch sessions above threshold",
        "76%",
        &format!("{:.1}%", switch.acc_with * 100.0),
    ));
    out
}

// ---------------------------------------------------------------- fig5

fn fig5(ctx: &ReproContext) -> String {
    let mut out = header(
        "fig5",
        "segment size and inter-arrival CDFs: encrypted vs cleartext",
    );
    let cleartext = ctx.fit.cleartext();
    let clear_sizes: Vec<f64> = cleartext
        .iter()
        .flat_map(|t| t.chunks.iter().map(|c| c.bytes as f64 / 1024.0))
        .collect();
    let enc_sizes: Vec<f64> = ctx
        .world
        .sessions
        .iter()
        .flat_map(|s| s.chunks.iter().map(|c| c.bytes as f64 / 1024.0))
        .collect();
    let inter = |obs: SessionObs| obs.inter_arrivals();
    let clear_gaps: Vec<f64> = cleartext
        .iter()
        .flat_map(|t| inter(SessionObs::from_trace(t)))
        .collect();
    let enc_gaps: Vec<f64> = ctx
        .world
        .sessions
        .iter()
        .flat_map(|s| inter(SessionObs::from_reassembled(s)))
        .collect();

    let size_a = Ecdf::new(&clear_sizes);
    let size_b = Ecdf::new(&enc_sizes);
    out.push_str(&render_cdf_pair(
        "chunk size (KB)",
        "KB",
        "cleartext",
        &size_a,
        "encrypted",
        &size_b,
        12,
    ));
    out.push('\n');
    let gap_a = Ecdf::new(&clear_gaps);
    let gap_b = Ecdf::new(&enc_gaps);
    out.push_str(&render_cdf_pair(
        "chunk inter-arrival time (s)",
        "s",
        "cleartext",
        &gap_a,
        "encrypted",
        &gap_b,
        12,
    ));
    out.push('\n');
    out.push_str(&compare_line(
        "size distributions largely overlap",
        "qualitative (Fig. 5 left)",
        &format!("KS = {:.3}", size_a.ks_distance(&size_b)),
    ));
    out.push_str(&compare_line(
        "encrypted inter-arrivals slightly shorter",
        "60% of encrypted chunks lower",
        &format!(
            "median clear {:.2}s vs encrypted {:.2}s",
            gap_a.inverse(0.5),
            gap_b.inverse(0.5)
        ),
    ));
    out
}

// ------------------------------------------------------------ tab8..11

/// A frozen forest scored on an encrypted world's labelled sessions
/// (the §5.4 protocol behind Tables 8–11).
fn evaluate_on<S: FeatureSpace>(model: &ForestModel<S>, world: &EncryptedWorld) -> ConfusionMatrix {
    model.evaluate(&build_dataset::<S>(
        world.labelled(S::label),
        TrainConfig::auto(),
    ))
}

fn tab8(ctx: &ReproContext) -> String {
    let mut out = header("tab8", "stall detection on encrypted traffic");
    let m = evaluate_on(&ctx.stall.model, &ctx.world);
    out.push_str(&render_class_report(&m));
    out.push('\n');
    out.push_str(&compare_line(
        "overall accuracy",
        "91.8% (cleartext − 1.7)",
        &format!(
            "{:.1}% (cleartext − {:.1})",
            m.accuracy() * 100.0,
            (ctx.stall.cv_matrix.accuracy() - m.accuracy()) * 100.0
        ),
    ));
    out.push_str(&compare_line(
        "severe class degrades the most",
        "severe recall 0.656",
        &format!("severe recall {:.3}", m.tp_rate(2)),
    ));
    out
}

fn tab9(ctx: &ReproContext) -> String {
    let mut out = header("tab9", "encrypted stall confusion matrix");
    let m = evaluate_on(&ctx.stall.model, &ctx.world);
    out.push_str(&render_confusion(&m));
    out.push('\n');
    let pct = m.row_percentages();
    out.push_str(&compare_line(
        "severe -> mild inflation",
        "32.4%",
        &format!("{:.1}%", pct[2][1]),
    ));
    out
}

fn tab10(ctx: &ReproContext) -> String {
    let mut out = header("tab10", "average representation on encrypted traffic");
    let m = evaluate_on(&ctx.representation.model, &ctx.world);
    out.push_str(&render_class_report(&m));
    out.push('\n');
    out.push_str(&compare_line(
        "overall accuracy",
        "81.9% (cleartext − 2.5)",
        &format!(
            "{:.1}% (cleartext − {:.1})",
            m.accuracy() * 100.0,
            (ctx.representation.cv_matrix.accuracy() - m.accuracy()) * 100.0
        ),
    ));
    out
}

fn tab11(ctx: &ReproContext) -> String {
    let mut out = header("tab11", "encrypted average-representation confusion matrix");
    let m = evaluate_on(&ctx.representation.model, &ctx.world);
    out.push_str(&render_confusion(&m));
    out.push('\n');
    let pct = m.row_percentages();
    out.push_str(&compare_line(
        "LD -> SD shift on the encrypted set",
        "15.4%",
        &format!("{:.1}%", pct[0][1]),
    ));
    out
}

// ---------------------------------------------------------------- sec56

fn sec56(ctx: &ReproContext) -> String {
    let mut out = header(
        "sec56",
        "representation-switch detection on encrypted traffic (frozen threshold)",
    );
    let switch = &ctx.fit.switch;
    let eval = switch
        .model
        .evaluate_labelled(&ctx.world.labelled(|gt, _| Some(has_switches(gt))));
    out.push_str(&format!(
        "frozen threshold {:.1} applied to {} encrypted sessions\n\n",
        switch.model.threshold(),
        eval.n_with + eval.n_without
    ));
    out.push_str(&compare_line(
        "no-switch sessions correctly identified",
        "76.9% (calibration − 1.1)",
        &format!(
            "{:.1}% (calibration − {:.1})",
            eval.acc_without * 100.0,
            (switch.acc_without - eval.acc_without) * 100.0
        ),
    ));
    out.push_str(&compare_line(
        "switch sessions correctly identified",
        "71.7% (calibration − 4.3)",
        &format!(
            "{:.1}% (calibration − {:.1})",
            eval.acc_with * 100.0,
            (switch.acc_with - eval.acc_with) * 100.0
        ),
    ));
    out
}

// ------------------------------------------------------------ ablations

/// Feature-set ablation: retrain the stall model without any chunk-size
/// features. The paper's argument (§4.1) implies accuracy should drop
/// materially.
fn ablation_features(ctx: &ReproContext) -> String {
    let mut out = header(
        "ablation-features",
        "stall model without chunk-size features",
    );
    let full = &ctx.fit.stall_data;
    // Drop the 7 chunk-size statistics (metric index 8 → columns 56..63).
    let keep: Vec<usize> = (0..full.n_features())
        .filter(|&i| !full.feature_names[i].starts_with("chunk size"))
        .collect();
    let without = full.select_features(&keep);
    let report_full = train_detector::<StallSpace>(full, 7, TrainConfig::auto());
    let report_without = train_detector::<StallSpace>(&without, 7, TrainConfig::auto());
    let mut t = Table::new(vec![
        "feature set",
        "CV accuracy",
        "no-stall recall",
        "severe recall",
    ]);
    for (name, m) in [
        ("all 70 features", &report_full.cv_matrix),
        ("without chunk size", &report_without.cv_matrix),
    ] {
        t.row(vec![
            name.to_string(),
            format!("{:.3}", m.accuracy()),
            format!("{:.3}", m.tp_rate(0)),
            format!("{:.3}", m.tp_rate(2)),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');
    out.push_str(&budget_line(
        "removing chunk-size features hurts",
        "implied by §4.1",
        &format!(
            "Δaccuracy = {:+.3}",
            report_without.cv_matrix.accuracy() - report_full.cv_matrix.accuracy()
        ),
    ));
    out
}

/// CUSUM ablation: score sessions by the raw σ of the Δsize×Δt series
/// instead of σ(CUSUM(...)) and compare separation quality.
fn ablation_cusum(ctx: &ReproContext) -> String {
    let mut out = header("ablation-cusum", "CUSUM vs raw σ of the Δsize×Δt series");
    let switch = &ctx.fit.switch;
    let cfg = *switch.model.scoring();
    let mut raw_without = Vec::new();
    let mut raw_with = Vec::new();
    for t in &ctx.fit.adaptive {
        let obs = SessionObs::from_trace(t);
        let filtered = vqoe_changedet::detector::startup_filter(&obs.chunk_points(), &cfg);
        if filtered.len() < 3 {
            continue;
        }
        let series = vqoe_changedet::detector::delta_product_series(&filtered, &cfg);
        let raw = vqoe_stats::moments::population_std(&series);
        if has_switches(&t.ground_truth) {
            raw_with.push(raw);
        } else {
            raw_without.push(raw);
        }
    }
    let (_, raw_wo, raw_w) = vqoe_stats::ecdf::best_separating_threshold(&raw_without, &raw_with);
    let mut t = Table::new(vec!["method", "no-switch acc", "switch acc", "balanced"]);
    t.row(vec![
        "σ(CUSUM(Δsize×Δt)) [paper]".to_string(),
        format!("{:.3}", switch.acc_without),
        format!("{:.3}", switch.acc_with),
        format!("{:.3}", (switch.acc_without + switch.acc_with) / 2.0),
    ]);
    t.row(vec![
        "σ(Δsize×Δt) raw".to_string(),
        format!("{raw_wo:.3}"),
        format!("{raw_w:.3}"),
        format!("{:.3}", (raw_wo + raw_w) / 2.0),
    ]);
    out.push_str(&t.render());
    out.push('\n');
    out.push_str(&budget_line(
        "CUSUM accumulation beats a raw variance score",
        "implied by §4.3's method choice",
        &format!(
            "Δbalanced = {:+.3}",
            (switch.acc_without + switch.acc_with) / 2.0 - (raw_wo + raw_w) / 2.0
        ),
    ));
    out
}

/// Reassembly sensitivity: sweep the idle-gap threshold of the §5.2
/// procedure and report recall (sessions recovered and matched) and
/// fragmentation (recovered sessions per real session).
fn ablation_reassembly(ctx: &ReproContext) -> String {
    let mut out = header(
        "ablation-reassembly",
        "idle-gap sensitivity of encrypted session reassembly",
    );
    let mut t = Table::new(vec![
        "idle gap (s)",
        "recovered",
        "matched",
        "recall",
        "exact chunk counts",
    ]);
    for gap_secs in [5u64, 15, 30, 60, 120, 600] {
        let cfg = vqoe_telemetry::ReassemblyConfig {
            idle_gap: vqoe_simnet::time::Duration::from_secs(gap_secs),
            ..vqoe_telemetry::ReassemblyConfig::default()
        };
        let sessions = vqoe_telemetry::reassemble_subscriber(&ctx.world.entries, &cfg);
        let joined = vqoe_telemetry::join_sessions(&sessions, &ctx.world.traces);
        let exact = joined
            .iter()
            .filter(|j| {
                sessions[j.reassembled_idx].chunk_count()
                    == ctx.world.traces[j.trace_idx].chunks.len()
            })
            .count();
        t.row(vec![
            format!("{gap_secs}"),
            format!("{}", sessions.len()),
            format!("{}", joined.len()),
            format!("{:.3}", joined.len() as f64 / ctx.world.traces.len() as f64),
            format!("{exact}/{}", joined.len()),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');
    out.push_str(&budget_line(
        "reassembly robust across a wide threshold range",
        "implied by §5.2's claimed reliability",
        "see the recall column",
    ));
    out
}

/// The Prometheus-style binary baseline the paper compares against:
/// stall / no-stall with all features.
fn baseline_binary(ctx: &ReproContext) -> String {
    let mut out = header(
        "baseline-binary",
        "binary stall classifier (Prometheus-style baseline)",
    );
    let full = &ctx.fit.stall_data;
    let y_binary: Vec<usize> = full
        .y
        .iter()
        .map(|&y| usize::from(y != StallClass::NoStalls.index()))
        .collect();
    let binary = Dataset::new(
        full.feature_names.clone(),
        vec!["no stalls".to_string(), "stalls".to_string()],
        full.x.clone(),
        y_binary,
    );
    let cv = cross_validate(
        &binary,
        10,
        ForestConfig::default(),
        true,
        7,
        ctx.fit.config.train,
    );
    let m = &cv.matrix;
    out.push_str(&render_class_report(m));
    out.push('\n');
    if cv.skipped_folds > 0 {
        out.push_str(&format!(
            "({} of 10 folds had no usable training or test rows and are not scored)\n",
            cv.skipped_folds
        ));
    }
    out.push_str(&compare_line(
        "binary baseline accuracy",
        "~84% (Prometheus [15])",
        &format!("{:.1}%", m.accuracy() * 100.0),
    ));
    out.push_str(&compare_line(
        "3-class model adds severity detection at",
        "93.5%",
        &format!("{:.1}%", ctx.stall.cv_matrix.accuracy() * 100.0),
    ));
    out
}

/// The §7 generalization probe: models trained on the YouTube profile,
/// evaluated on a provider with different delivery mechanics (shorter
/// muxed segments, more efficient encodes, deeper buffers).
fn generalization(ctx: &ReproContext) -> String {
    let mut out = header(
        "generalization",
        "§7 probe: YouTube-trained models on a Vimeo-like provider",
    );
    let mut config = vqoe_core::EncryptedEvalConfig::paper_default(ctx.scale.seed ^ 0x0666);
    config.spec.profile = vqoe_player::StreamingProfile::vimeo_like();
    let other = vqoe_core::EncryptedWorld::build(&config).expect("simulated world builds");

    let stall_home = evaluate_on(&ctx.stall.model, &ctx.world);
    let stall_away = evaluate_on(&ctx.stall.model, &other);
    let rep_home = evaluate_on(&ctx.representation.model, &ctx.world);
    let rep_away = evaluate_on(&ctx.representation.model, &other);
    let switch = &ctx.fit.switch.model;
    let sw_home = switch.evaluate_labelled(&ctx.world.labelled(|gt, _| Some(has_switches(gt))));
    let sw_away = switch.evaluate_labelled(&other.labelled(|gt, _| Some(has_switches(gt))));

    let mut t = Table::new(vec![
        "detector",
        "YouTube profile",
        "Vimeo-like profile",
        "delta",
    ]);
    t.row(vec![
        "stall severity".to_string(),
        format!("{:.3}", stall_home.accuracy()),
        format!("{:.3}", stall_away.accuracy()),
        format!("{:+.3}", stall_away.accuracy() - stall_home.accuracy()),
    ]);
    t.row(vec![
        "avg representation".to_string(),
        format!("{:.3}", rep_home.accuracy()),
        format!("{:.3}", rep_away.accuracy()),
        format!("{:+.3}", rep_away.accuracy() - rep_home.accuracy()),
    ]);
    let bal = |e: &vqoe_core::SwitchEvalReport| (e.acc_with + e.acc_without) / 2.0;
    t.row(vec![
        "switch detection (balanced)".to_string(),
        format!("{:.3}", bal(&sw_home)),
        format!("{:.3}", bal(&sw_away)),
        format!("{:+.3}", bal(&sw_away) - bal(&sw_home)),
    ]);
    out.push_str(&t.render());
    out.push('\n');
    out.push_str(&budget_line(
        "methodology generalizes across providers",
        "conjectured (§7)",
        "see deltas above (retraining closes any gap)",
    ));
    out
}

/// Robustness extension: how much does provider-side traffic-shape
/// obfuscation degrade the trained detectors? The flip side of the
/// paper's thesis — TLS alone leaks QoE structure; this quantifies what
/// it would take to actually hide it.
fn obfuscation(ctx: &ReproContext) -> String {
    use rand::SeedableRng;
    use vqoe_features::obfuscation::{inject_dummies, jitter_timing, pad_sizes};

    let mut out = header(
        "obfuscation",
        "detector accuracy under provider-side shape countermeasures",
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x0BF5);

    // Collect the joined encrypted sessions once.
    let sessions = ctx.world.labelled(|gt, adaptive| {
        Some((
            StallSpace::label(gt, adaptive)?,
            RepresentationSpace::label(gt, adaptive)?,
        ))
    });

    let eval =
        |label: String, transform: &mut dyn FnMut(&SessionObs) -> SessionObs, t: &mut Table| {
            let mut stall_ok = 0usize;
            let mut rq_ok = 0usize;
            for (obs, (stall_truth, rq_truth)) in &sessions {
                let defended = transform(obs);
                if ctx.stall.model.predict(&defended) == *stall_truth {
                    stall_ok += 1;
                }
                if ctx.representation.model.predict(&defended) == *rq_truth {
                    rq_ok += 1;
                }
            }
            let n = sessions.len() as f64;
            t.row(vec![
                label,
                format!("{:.3}", stall_ok as f64 / n),
                format!("{:.3}", rq_ok as f64 / n),
            ]);
        };

    let mut t = Table::new(vec!["countermeasure", "stall acc", "repr acc"]);
    eval("none (baseline)".to_string(), &mut |o| o.clone(), &mut t);
    for quantum in [64_000u64, 256_000, 1_000_000] {
        eval(
            format!("pad sizes to {} KB", quantum / 1000),
            &mut |o| pad_sizes(o, quantum),
            &mut t,
        );
    }
    for jitter in [1.0f64, 5.0] {
        eval(
            format!("timing jitter ≤ {jitter}s"),
            &mut |o| jitter_timing(o, jitter, &mut rng),
            &mut t,
        );
    }
    let mut rng2 = rand::rngs::StdRng::seed_from_u64(0x0BF6);
    for frac in [0.25f64, 1.0] {
        eval(
            format!("+{:.0}% dummy chunks", frac * 100.0),
            &mut |o| inject_dummies(o, frac, &mut rng2),
            &mut t,
        );
    }
    out.push_str(&t.render());
    out.push('\n');
    out.push_str(&budget_line(
        "shape obfuscation is what it takes to defeat monitoring",
        "implied: TLS alone does not hide QoE",
        "accuracy decays with countermeasure strength",
    ));
    out
}

// ----------------------------------------------------------- chaos-sweep

/// Match emitted assessments to ground-truth traces by the §5.2 joining
/// rule; `(assessment index, trace index)` pairs.
fn match_assessments(
    assessments: &[SessionAssessment],
    traces: &[SessionTrace],
) -> Vec<(usize, usize)> {
    let spans: Vec<SessionSpan> = assessments
        .iter()
        .map(|a| SessionSpan {
            start: a.start,
            end: a.end,
            chunks: a.chunk_count,
        })
        .collect();
    let truths: Vec<SessionSpan> = traces.iter().map(SessionSpan::of_trace).collect();
    match_sessions(&spans, &truths)
        .into_iter()
        .map(|j| (j.reassembled_idx, j.trace_idx))
        .collect()
}

/// Score matched `(assessment, trace)` pairs against the world's ground
/// truth, each trace labelled by the spaces' label rules and
/// [`has_switches`]: the number of pairs and the stall, representation
/// and switch agreement cells (`-` when nothing matched).
fn agreement<'a>(
    pairs: impl Iterator<Item = (&'a SessionAssessment, &'a SessionTrace)>,
) -> (usize, [String; 3]) {
    let mut n = 0usize;
    let mut ok = [0usize; 3];
    for (a, t) in pairs {
        let (gt, adaptive) = (&t.ground_truth, t.config.delivery.is_adaptive());
        n += 1;
        ok[0] += usize::from(StallSpace::label(gt, adaptive) == Some(a.stall));
        ok[1] += usize::from(RepresentationSpace::label(gt, adaptive) == Some(a.representation));
        ok[2] += usize::from(has_switches(gt) == a.has_quality_switches);
    }
    let pct = |k: usize| {
        if n == 0 {
            "-".to_string()
        } else {
            format!("{:.1}%", 100.0 * k as f64 / n as f64)
        }
    };
    (n, ok.map(pct))
}

/// Degradation sweep: run the encrypted world through a seeded
/// `ChaosTap` at increasing fault intensity and measure what survives —
/// the deployment question §8 leaves open (how does the monitor degrade
/// when the tap itself is unreliable?).
fn chaos_sweep(ctx: &ReproContext) -> String {
    use vqoe_core::OnlineAssessor;
    use vqoe_telemetry::{apply_chaos, ChaosConfig};

    let mut out = header(
        "chaos-sweep",
        "graceful degradation under a hostile tap (fault intensity sweep)",
    );
    let monitor = ctx.monitor();
    // Reference: the un-wrapped batch pipeline on the clean stream.
    let batch = monitor.pipeline().assess_subscriber(&ctx.world.entries);

    let mut t = Table::new(vec![
        "fault", "assessed", "matched", "stall", "repr", "switch", "reord", "dup", "quar", "evict",
        "partial",
    ]);
    let mut zero_identical = false;
    for (i, &intensity) in [0.0, 0.02, 0.05, 0.1, 0.2, 0.4].iter().enumerate() {
        // The evaluation world is one subscriber's stream, so a single
        // mid-stream cut would censor the whole tail and the sweep
        // would measure where the first cut landed, not per-entry
        // fault tolerance. Cuts stay at zero here; the chaos-matrix
        // integration tests cover them on multi-subscriber taps.
        let cfg = ChaosConfig {
            cut: 0.0,
            ..ChaosConfig::uniform(intensity)
        };
        let (entries, _) = apply_chaos(
            &ctx.world.entries,
            &cfg,
            ctx.scale.seed ^ (0xC4A0 + i as u64),
        );
        let mut online = OnlineAssessor::new(monitor.clone());
        let mut assessments = Vec::new();
        for e in &entries {
            assessments.extend(online.ingest(e));
        }
        let report = online.into_report();
        assessments.extend(report.assessments);
        if intensity == 0.0 {
            zero_identical = assessments == batch;
        }
        let matches = match_assessments(&assessments, &ctx.world.traces);
        let (matched, [stall, repr, switch]) = agreement(
            matches
                .iter()
                .map(|&(ai, ti)| (&assessments[ai], &ctx.world.traces[ti])),
        );
        let h = report.health;
        t.row(vec![
            format!("{intensity:.2}"),
            assessments.len().to_string(),
            format!("{matched}/{}", ctx.world.traces.len()),
            stall,
            repr,
            switch,
            h.entries_reordered.to_string(),
            h.entries_duplicated.to_string(),
            h.entries_quarantined.to_string(),
            h.sessions_evicted.to_string(),
            h.sessions_partial.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');
    out.push_str(&budget_line(
        "clean path bit-identical at zero faults",
        "required",
        if zero_identical {
            "yes"
        } else {
            "NO — regression"
        },
    ));
    out.push_str(&budget_line(
        "degradation shape",
        "graceful (no collapse)",
        "accuracy and match rate decay with intensity; see table",
    ));
    out
}

// ----------------------------------------------------- overload-sweep

/// Flood subscribers per legitimate subscriber (the "10x flood" of
/// the acceptance bar).
const FLOOD_MULTIPLIER: u64 = 10;
/// Media chunks each flood subscriber requests.
const FLOOD_CHUNKS_PER_SUBSCRIBER: usize = 24;
/// Chunks in the single pathological (never-ending) session.
const PATHOLOGICAL_CHUNKS: usize = 400;
/// Global budget as a percentage of the unbudgeted peak (forces
/// shedding by construction).
const BUDGET_PCT_OF_PEAK: u64 = 50;

/// Overload harness: merge a 10x subscriber flood and one pathological
/// never-ending session into the evaluation tap, cap the assessor's
/// memory, and measure what the budgets shed, what accuracy each
/// fidelity tier retains, and whether kill/checkpoint/restore/replay
/// stays bit-identical to the uninterrupted run.
fn overload_sweep(ctx: &ReproContext) -> String {
    use std::collections::BTreeSet;
    use vqoe_core::{
        AdmissionPolicy, BudgetConfig, Fidelity, IngestReport, OnlineAssessor, OnlineCheckpoint,
    };
    use vqoe_simnet::time::{Duration, Instant};
    use vqoe_telemetry::{
        generate_pathological_session, generate_subscriber_flood, merge_streams, FloodSpec,
    };

    let monitor = ctx.monitor();

    // The legitimate tap plus the overload: a subscriber flood sized at
    // `FLOOD_MULTIPLIER` times the legitimate population, spread over
    // the whole capture window, and one pathological session that never
    // reaches a session boundary.
    let legit = &ctx.world.entries;
    let legit_subs: BTreeSet<u64> = legit.iter().map(|e| e.subscriber_id).collect();
    let start = legit.first().map(|e| e.timestamp).unwrap_or(Instant(0));
    let end = legit.last().map(|e| e.timestamp).unwrap_or(Instant(0));
    let window = end.duration_since(start).max(Duration::from_secs(60));
    let spec = FloodSpec {
        subscribers: FLOOD_MULTIPLIER * legit_subs.len().max(1) as u64,
        chunks_per_subscriber: FLOOD_CHUNKS_PER_SUBSCRIBER,
        window,
        ..FloodSpec::default()
    };
    let flood = generate_subscriber_flood(&spec, start, ctx.scale.seed ^ 0xF100D);
    let pathological = generate_pathological_session(
        0x000B_AD1D,
        start,
        PATHOLOGICAL_CHUNKS,
        Duration::from_millis(250),
        ctx.scale.seed ^ 0xBAD,
    );
    let entries = merge_streams(vec![legit.clone(), flood, pathological]);

    let run = |budget: BudgetConfig| -> (IngestReport, u64) {
        let mut online = OnlineAssessor::new(monitor.clone()).with_budget(budget);
        let mut assessments = Vec::new();
        for e in &entries {
            assessments.extend(online.ingest(e));
        }
        let peak = online.peak_tracked_bytes();
        let mut report = online.into_report();
        assessments.extend(std::mem::take(&mut report.assessments));
        report.assessments = assessments;
        (report, peak)
    };

    // Unbudgeted reference run: sizes the budget and anchors the
    // restore-equivalence check.
    let (reference, peak_unbudgeted) = run(BudgetConfig::default());
    let global_budget = (peak_unbudgeted * BUDGET_PCT_OF_PEAK) / 100;
    let shed_budget = BudgetConfig {
        per_subscriber_bytes: global_budget / 4,
        global_bytes: global_budget,
        admission: AdmissionPolicy::ShedColdest,
    };
    // The refuse scenario runs a much tighter global-only budget:
    // refusals fire when a newcomer arrives while tracked bytes sit
    // within one record of the cap, so the cap has to stay genuinely
    // contended (a generous cap sheds into lumpy headroom and admits
    // everyone).
    let refuse_budget = BudgetConfig {
        per_subscriber_bytes: 0,
        global_bytes: (global_budget / 8).max(1),
        admission: AdmissionPolicy::Refuse,
    };
    let (shed_report, peak_shed) = run(shed_budget);
    let (refuse_report, peak_refuse) = run(refuse_budget);

    let total_subs = legit_subs.len() as u64 + spec.subscribers + 1;
    let mut out = header(
        "overload-sweep",
        "admission control, memory budgets and degraded tiers under a 10x flood",
    );
    out.push_str(&format!(
        "tap: {} entries ({} legitimate + flood of {} subscribers + 1 pathological); \
         unbudgeted peak {} bytes; global budget {} bytes ({}% of peak), \
         per-subscriber {} bytes\n\n",
        entries.len(),
        legit.len(),
        spec.subscribers,
        peak_unbudgeted,
        global_budget,
        BUDGET_PCT_OF_PEAK,
        shed_budget.per_subscriber_bytes,
    ));

    let mut t = Table::new(vec![
        "scenario",
        "assessed",
        "full",
        "partial",
        "shed",
        "shed events",
        "refused",
        "peak bytes",
        "bytes/sub",
    ]);
    let scenarios: [(&str, &IngestReport, u64); 3] = [
        ("unlimited", &reference, peak_unbudgeted),
        ("budget+shed", &shed_report, peak_shed),
        ("budget+refuse", &refuse_report, peak_refuse),
    ];
    for (name, report, peak) in scenarios {
        let by_tier = |f: Fidelity| {
            report
                .assessments
                .iter()
                .filter(|a| a.fidelity == f)
                .count()
        };
        t.row(vec![
            name.to_string(),
            report.assessments.len().to_string(),
            by_tier(Fidelity::Full).to_string(),
            by_tier(Fidelity::Partial).to_string(),
            by_tier(Fidelity::Shed).to_string(),
            report.shed.total().to_string(),
            report.shed.reasons().admission_refused.to_string(),
            peak.to_string(),
            (peak / total_subs).to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');

    // Per-tier accuracy on the budgeted (shedding) run, against the
    // legitimate subscribers' ground truth. Flood/pathological sessions
    // have no ground truth and simply stay unmatched.
    let matches = match_assessments(&shed_report.assessments, &ctx.world.traces);
    let mut tier_table = Table::new(vec!["tier", "matched", "stall", "repr", "switch"]);
    for tier in [Fidelity::Full, Fidelity::Partial, Fidelity::Shed] {
        let (matched, [stall, repr, switch]) = agreement(
            matches
                .iter()
                .map(|&(ai, ti)| (&shed_report.assessments[ai], &ctx.world.traces[ti]))
                .filter(|(a, _)| a.fidelity == tier),
        );
        tier_table.row(vec![
            tier.label().to_string(),
            matched.to_string(),
            stall,
            repr,
            switch,
        ]);
    }
    out.push_str("per-tier accuracy (budget+shed scenario, legitimate ground truth):\n");
    out.push_str(&tier_table.render());
    out.push('\n');

    // Kill/restore determinism: cut the budgeted run at the midpoint,
    // checkpoint, round-trip through JSON, restore into a fresh
    // assessor, replay the tail — the merged report must be
    // bit-identical to the uninterrupted budgeted run.
    let mid = entries.len() / 2;
    let mut first = OnlineAssessor::new(monitor.clone()).with_budget(shed_budget);
    let mut resumed_assessments = Vec::new();
    for e in entries.iter().take(mid) {
        resumed_assessments.extend(first.ingest(e));
    }
    let ck = first.checkpoint();
    let ck_json = ck.to_json().expect("checkpoint serializes");
    let ck_back = OnlineCheckpoint::from_json(&ck_json).expect("checkpoint parses");
    let json_stable = ck_back.to_json().expect("checkpoint re-serializes") == ck_json;
    let mut second =
        OnlineAssessor::restore(monitor.clone(), &ck_back).expect("checkpoint restores");
    for e in entries.iter().skip(mid) {
        resumed_assessments.extend(second.ingest(e));
    }
    let mut resumed = second.into_report();
    resumed_assessments.extend(std::mem::take(&mut resumed.assessments));
    resumed.assessments = resumed_assessments;
    let restore_identical = resumed == shed_report;

    let within_budget = peak_shed <= peak_unbudgeted && peak_refuse <= peak_unbudgeted;
    out.push_str(&budget_line(
        "survived 10x flood within budget",
        "yes (no panics, peak under unbudgeted)",
        if within_budget {
            "yes"
        } else {
            "NO — regression"
        },
    ));
    out.push_str(&budget_line(
        "kill @ midpoint + restore + replay tail",
        "bit-identical report",
        if restore_identical && json_stable {
            "bit-identical (JSON round-trip stable)"
        } else {
            "DIVERGED"
        },
    ));
    out.push_str(&budget_line(
        "shedding is typed and logged",
        "every force-finalize has a ShedReason",
        &format!(
            "{} events: {} lru, {} subscriber-budget, {} global-budget, {} refused",
            shed_report.shed.total(),
            shed_report.shed.reasons().lru_capacity,
            shed_report.shed.reasons().subscriber_budget,
            shed_report.shed.reasons().global_budget,
            shed_report.shed.reasons().admission_refused,
        ),
    ));

    out
}

// --------------------------------------------------------- setup-split

/// Where the time of one full [`vqoe_core::QoeMonitor::train`] goes, at
/// the model set-up every qoebench run pays (800 cleartext + 300
/// adaptive sessions, seed 2016, 2 workers): wall time per
/// [`TrainStage`](vqoe_core::TrainStage), median of three trainings,
/// and the median of the three whole trainings, the figure qoebench
/// gates as `setup_s`. This is its only per-stage view.
#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "setup-split times the model set-up on the OS clock"
)]
fn setup_split() -> String {
    use std::time::Instant;
    use vqoe_core::{ModelFit, TrainStage, TrainingConfig};

    let (reps, workers) = (3, 2);
    let config = TrainingConfig {
        cleartext_sessions: 800,
        adaptive_sessions: 300,
        seed: 2016,
        train: TrainConfig::with_workers(workers),
        ..TrainingConfig::default()
    };
    let mut stage_secs: [Vec<f64>; 3] = Default::default();
    let mut whole_secs = Vec::new();
    for _ in 0..reps {
        let start = Instant::now();
        let mut last = start;
        ModelFit::run(&config, |stage| {
            let i = match stage {
                TrainStage::Generated => 0,
                TrainStage::Selected => 1,
                TrainStage::Fitted => 2,
            };
            stage_secs[i].push(last.elapsed().as_secs_f64());
            last = Instant::now();
        });
        whole_secs.push(start.elapsed().as_secs_f64());
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let medians = stage_secs.map(median);
    let total: f64 = medians.iter().sum();
    let mut t = Table::new(vec!["stage", "secs", "share"]);
    let labels = [
        "trace generation",
        "feature build + selection",
        "final fits + switch calibration",
    ];
    for (label, secs) in labels.iter().zip(medians) {
        t.row(vec![
            label.to_string(),
            format!("{secs:.3}"),
            format!("{:.0}%", 100.0 * secs / total),
        ]);
    }
    t.row(vec![
        "sum of stage medians".to_string(),
        format!("{total:.3}"),
        "100%".to_string(),
    ]);
    t.row(vec![
        "whole training (median)".to_string(),
        format!("{:.3}", median(whole_secs)),
        "-".to_string(),
    ]);
    let mut out = header(
        "setup-split",
        "where model set-up time goes, per training stage",
    );
    out.push_str(&format!(
        "QoeMonitor::train at {} cleartext + {} adaptive sessions, {workers} \
         workers, {} cores available; median of {reps} trainings per stage\n\n{}",
        config.cleartext_sessions,
        config.adaptive_sessions,
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        t.render(),
    ));
    out
}

// -------------------------------------------------- subscriber-scaling

/// The 100k–1M ladder `scripts/bench.sh` reports: one measured point
/// per concurrent-subscriber count.
pub const SCALING_LADDER: [usize; 3] = [100_000, 300_000, 1_000_000];
/// The 10k single point the memory soak test gates (also what
/// `repro subscriber-scaling --smoke` uses).
pub const SCALING_SMOKE_LADDER: [usize; 1] = [10_000];
/// Exactness cap forced onto the reassembler. The production default
/// (`vqoe_telemetry::EXACT_ENTRY_CAP` = 4096) is deliberate headroom;
/// the harness pins it low so the long cohort actually exercises the
/// sketch-spill path.
const SCALING_EXACT_ENTRY_CAP: usize = 64;
/// Media chunks in a short (under-cap, exact) session.
const SCALING_SHORT_CHUNKS: usize = 4;
/// Media chunks in a long (spilling, sketched) session.
const SCALING_LONG_CHUNKS: usize = 512;
/// Every `SCALING_LONG_EVERY`-th subscriber plays a long session.
const SCALING_LONG_EVERY: usize = 64;

// Short sessions stay exact and long ones spill past the cap.
const _: () = assert!(
    SCALING_SHORT_CHUNKS < SCALING_EXACT_ENTRY_CAP && SCALING_EXACT_ENTRY_CAP < SCALING_LONG_CHUNKS
);

/// One measured ladder point of [`subscriber_scaling_with`].
struct ScalePoint {
    subscribers: usize,
    entries: u64,
    sessions: usize,
    elapsed_secs: f64,
    bytes_per_subscriber: u64,
    sketched: usize,
    partial: usize,
    evicted: u64,
    shed: u64,
}

/// The `k`-th media chunk of subscriber `s` on the scaling ladder's tap.
fn scaling_entry(s: u64, k: usize) -> vqoe_telemetry::WeblogEntry {
    use vqoe_player::TransportSummary;
    use vqoe_simnet::time::{Duration as SimDuration, Instant as SimInstant};
    use vqoe_telemetry::{EntryKind, WeblogEntry};

    let wave_micros: u64 = 2_000_000; // one chunk per subscriber every 2 s
    WeblogEntry {
        // Waves are 2 s apart per subscriber; the sub-millisecond
        // stagger spreads a wave across subscribers without ever
        // reordering any single subscriber's stream.
        timestamp: SimInstant(k as u64 * wave_micros + (s % 997) * 1_000),
        subscriber_id: s,
        host: "r7---sn-scale.googlevideo.com".to_string(),
        uri: None,
        bytes: 200_000 + ((s + k as u64) % 7) * 10_000,
        duration: SimDuration::from_millis(400 + (k as u64 % 5) * 40),
        transport: TransportSummary {
            rtt_min: 0.020,
            rtt_mean: 0.035,
            rtt_max: 0.060,
            bdp_mean: 80_000.0,
            bif_mean: 30_000.0,
            bif_max: 60_000.0,
            loss_frac: 0.002,
            retx_frac: 0.004,
        },
        encrypted: true,
        kind: EntryKind::MediaChunk,
    }
}

/// Measure one ladder point: `n` subscribers held open at once through
/// one [`vqoe_core::OnlineAssessor`].
#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "subscriber-scaling reports throughput on the OS clock"
)]
fn measure_scale_point(ctx: &ReproContext, n: usize) -> ScalePoint {
    use vqoe_core::{Fidelity, OnlineAssessor};
    use vqoe_telemetry::IngestConfig;

    let mut monitor = ctx.monitor();
    monitor.reassembly.exact_entry_cap = SCALING_EXACT_ENTRY_CAP;
    let ingest_cfg = IngestConfig {
        max_open_subscribers: n,
        ..IngestConfig::default()
    };
    let mut online = OnlineAssessor::with_config(monitor, ingest_cfg);
    let t0 = std::time::Instant::now();
    let mut entries_fed = 0u64;
    let mut tally = (0usize, 0usize, 0usize); // (sessions, sketched, partial)
    let fold = |assessments: Vec<vqoe_core::SessionAssessment>, t: &mut (usize, usize, usize)| {
        for a in assessments {
            t.0 += 1;
            if a.fidelity == Fidelity::Sketched {
                t.1 += 1;
            }
            if a.fidelity >= Fidelity::Partial {
                t.2 += 1;
            }
        }
    };
    for k in 0..SCALING_LONG_CHUNKS {
        if k < SCALING_SHORT_CHUNKS {
            for s in 0..n as u64 {
                fold(online.ingest(&scaling_entry(s, k)), &mut tally);
                entries_fed += 1;
            }
        } else {
            // Only the long cohort is still playing.
            for s in (0..n as u64).step_by(SCALING_LONG_EVERY) {
                fold(online.ingest(&scaling_entry(s, k)), &mut tally);
                entries_fed += 1;
            }
        }
    }
    let peak = online.peak_tracked_bytes();
    let report = online.into_report();
    fold(report.assessments, &mut tally);
    let elapsed = t0.elapsed().as_secs_f64();
    ScalePoint {
        subscribers: n,
        entries: entries_fed,
        sessions: tally.0,
        elapsed_secs: elapsed,
        bytes_per_subscriber: peak / n.max(1) as u64,
        sketched: tally.1,
        partial: tally.2,
        evicted: report.health.sessions_evicted,
        shed: report.health.sessions_shed,
    }
}

/// Concurrent-subscriber scaling of the streaming [`OnlineAssessor`].
///
/// Every ladder point opens `n` subscribers *simultaneously*: chunks
/// arrive in 2-second waves, round-robin across subscribers, so at the
/// peak all `n` per-subscriber machines are live at once. A fixed
/// fraction of subscribers (1 in `SCALING_LONG_EVERY`) plays a session far past
/// the exactness cap — those cross into the ISSUE-10 streaming-digest
/// path and come back `Fidelity::Sketched`; everyone else stays exact.
///
/// Reported per point: sessions/sec (ingest + final drain), peak
/// tracked bytes per subscriber (the memory-bound headline — must stay
/// flat as `n` grows 10x, because per-subscriber state is O(1) in both
/// subscriber count and session length), and the sketch-spill /
/// eviction / partial rates. The counterfactual buffered cost of one
/// long session is printed alongside: past the cap the buffered path
/// grows linearly with session length while the streaming path is the
/// pinned constant (`SPILL_STATE_COST_BYTES` + the capped prefix).
///
/// [`OnlineAssessor`]: vqoe_core::OnlineAssessor
pub fn subscriber_scaling_with(ctx: &ReproContext, ladder: &[usize]) -> String {
    let points: Vec<ScalePoint> = ladder
        .iter()
        .map(|&n| measure_scale_point(ctx, n))
        .collect();

    // The counterfactual: what one long session would have cost the
    // budget had every chunk stayed buffered, vs the streaming bound.
    let per_entry = scaling_entry(0, 0).tracked_cost();
    let buffered_long = SCALING_LONG_CHUNKS as u64 * per_entry;
    let streaming_long =
        SCALING_EXACT_ENTRY_CAP as u64 * per_entry + vqoe_telemetry::SPILL_STATE_COST_BYTES;

    let flatness = {
        let bpses: Vec<u64> = points.iter().map(|p| p.bytes_per_subscriber).collect();
        let max = bpses.iter().copied().max().unwrap_or(1).max(1);
        let min = bpses.iter().copied().min().unwrap_or(1).max(1);
        max as f64 / min as f64
    };

    let mut out = header(
        "subscriber-scaling",
        "streaming per-subscriber state at 100k-1M concurrent subscribers",
    );
    out.push_str(&format!(
        "every point holds all subscribers open at once; 1 in {} plays a\n\
         {}-chunk session past the exactness cap ({}) and degrades to the\n\
         sketched tier; the rest stay exact at {} chunks\n\n",
        SCALING_LONG_EVERY, SCALING_LONG_CHUNKS, SCALING_EXACT_ENTRY_CAP, SCALING_SHORT_CHUNKS,
    ));
    let mut t = Table::new(vec![
        "subscribers",
        "entries",
        "sessions",
        "sessions/sec",
        "bytes/subscriber",
        "sketched %",
        "evicted",
        "partial %",
    ]);
    for p in &points {
        t.row(vec![
            format!("{}", p.subscribers),
            format!("{}", p.entries),
            format!("{}", p.sessions),
            format!("{:.0}", p.sessions as f64 / p.elapsed_secs.max(1e-9)),
            format!("{}", p.bytes_per_subscriber),
            format!(
                "{:.2}",
                100.0 * p.sketched as f64 / p.sessions.max(1) as f64
            ),
            format!("{}", p.evicted + p.shed),
            format!("{:.2}", 100.0 * p.partial as f64 / p.sessions.max(1) as f64),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');
    out.push_str(&format!(
        "one {}-chunk session, per-subscriber budget cost:\n  \
         buffered path (pre-ISSUE-10): {} bytes (grows with session length)\n  \
         streaming path:              {} bytes (constant for any length)\n\n",
        SCALING_LONG_CHUNKS, buffered_long, streaming_long,
    ));
    out.push_str(&budget_line(
        "bytes/subscriber flatness across the ladder (max/min)",
        "<= 1.15x",
        &format!("{flatness:.3}x"),
    ));
    let expected_sketched = 100.0 / SCALING_LONG_EVERY as f64;
    let last = points.last().expect("at least one ladder point");
    out.push_str(&budget_line(
        "sketched-session rate at the largest point",
        &format!("~{expected_sketched:.2}%"),
        &format!(
            "{:.2}%",
            100.0 * last.sketched as f64 / last.sessions.max(1) as f64
        ),
    ));
    out.push_str(&budget_line(
        "sessions assessed at the largest point",
        &format!("{}", last.subscribers),
        &format!("{}", last.sessions),
    ));
    out.push_str(
        "\nper-subscriber state is O(1) in both subscriber count and session\n\
         length: under the cap sessions buffer exactly (bit-identical to the\n\
         batch path), past it they fold into fixed-size moments + quantile\n\
         sketches and surface as Fidelity::Sketched.\n",
    );

    out
}

/// `run_experiment` form: the 10k smoke point, so `repro all` and the
/// render test stay fast; `scripts/bench.sh` calls
/// [`subscriber_scaling_with`] on the full [`SCALING_LADDER`].
fn subscriber_scaling(ctx: &ReproContext) -> String {
    subscriber_scaling_with(ctx, &SCALING_SMOKE_LADDER)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{ReproContext, ReproScale};
    use std::sync::OnceLock;

    fn ctx() -> &'static ReproContext {
        static CTX: OnceLock<ReproContext> = OnceLock::new();
        CTX.get_or_init(|| ReproContext::build(ReproScale::smoke()))
    }

    /// 64-bit FNV-1a of every smoke-scale report, wall-clock cells
    /// left out (see [`without_wall_clock`]). A change that moves any
    /// figure of any experiment fails [`every_experiment_renders`].
    const REPORT_FNV1A: [(&str, u64); 26] = [
        ("tab1", 0x2b6a653691b81ae5),
        ("fig1", 0xa62e86aa6719977f),
        ("fig2", 0x0dfd39ae6e48e810),
        ("fig3", 0xe334dee541c55f81),
        ("tab2", 0xce7fbef171de333e),
        ("tab3", 0xe2fc0dd158017354),
        ("tab4", 0x8cf8208b30199d6a),
        ("tab5", 0x74ce515487bcc415),
        ("tab6", 0xa3af8abdb84a0ec3),
        ("tab7", 0x11136a59068461be),
        ("fig4", 0xe032a75a0e023b80),
        ("fig5", 0x7adeae74005162c9),
        ("tab8", 0xcc251cbee6c514c7),
        ("tab9", 0x17cf11dd5a712c75),
        ("tab10", 0x4d955fb5bf6c4de5),
        ("tab11", 0xc7b74b26f8693311),
        ("sec56", 0x1db27c9aa8f9f2a0),
        ("ablation-features", 0xa968b52605a2b8ca),
        ("ablation-cusum", 0x8bcf8e011d7f1520),
        ("ablation-reassembly", 0xab0473f5f3a8c8d5),
        ("baseline-binary", 0x42405c369a4971a0),
        ("generalization", 0x37741ee6ea1cb5ce),
        ("obfuscation", 0x946a0e6665b3df93),
        ("chaos-sweep", 0x3f857303cee11a03),
        ("overload-sweep", 0x974fd6c1d62393ed),
        ("subscriber-scaling", 0xf76aac3c0115fd72),
    ];

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The part of `id`'s report that does not read the wall clock:
    /// `setup-split` times set-up stages and has none; the
    /// `sessions/sec` cell of each `subscriber-scaling` row reads `*`.
    fn without_wall_clock(id: &str, report: &str) -> Option<String> {
        match id {
            "setup-split" => None,
            "subscriber-scaling" => {
                let mut rows = false;
                let lines = report.lines().map(|line| {
                    if line.contains("sessions/sec") {
                        rows = true;
                    } else if line.is_empty() {
                        rows = false;
                    } else if rows && !line.starts_with('-') {
                        let mut cells: Vec<&str> = line.split_whitespace().collect();
                        cells[3] = "*";
                        return cells.join(" ");
                    }
                    line.to_string()
                });
                Some(lines.collect::<Vec<_>>().join("\n"))
            }
            _ => Some(report.to_string()),
        }
    }

    #[test]
    fn every_experiment_renders() {
        let ctx = ctx();
        // Targets this repository set itself — the systems harness's
        // budgets, and claims the paper only implies or conjectures —
        // are never labelled as paper figures.
        let own_targets = [
            "ablation-features",
            "ablation-cusum",
            "ablation-reassembly",
            "generalization",
            "obfuscation",
            "chaos-sweep",
            "overload-sweep",
            "setup-split",
            "subscriber-scaling",
        ];
        let mut got = Vec::new();
        for id in EXPERIMENTS {
            let report = run_experiment(id, ctx);
            assert!(
                report.len() > 80,
                "experiment {id} produced a stub: {report}"
            );
            assert!(report.contains(id), "report missing its id: {id}");
            if own_targets.contains(&id) {
                assert!(
                    !report.contains("paper:"),
                    "{id} labels its own target as a paper figure:\n{report}"
                );
            }
            if let Some(text) = without_wall_clock(id, &report) {
                got.push((id, fnv1a(text.as_bytes())));
            }
        }
        let table: String = got
            .iter()
            .map(|(id, h)| format!("        (\"{id}\", 0x{h:016x}),\n"))
            .collect();
        assert!(
            got == REPORT_FNV1A,
            "a smoke-scale report changed; if that is intended, re-pin REPORT_FNV1A:\n{table}"
        );
    }

    #[test]
    fn unknown_experiment_lists_known_ones() {
        let report = run_experiment("nope", ctx());
        assert!(report.contains("unknown experiment"));
        assert!(report.contains("tab3"));
    }

    #[test]
    fn tab3_reports_accuracy_against_paper() {
        let report = run_experiment("tab3", ctx());
        assert!(report.contains("93.5%"), "paper value missing");
        assert!(report.contains("weighted avg."));
    }

    #[test]
    fn fig4_reports_threshold() {
        let report = run_experiment("fig4", ctx());
        assert!(report.contains("calibrated threshold"));
        assert!(report.contains("78%"));
    }

    /// The memory soak: at the 10k-subscriber smoke point, per-subscriber
    /// state must land in the same small band the 100k-1M ladder
    /// reports. Run by `scripts/soak.sh` (`VQOE_SOAK=1 scripts/check.sh`).
    #[test]
    #[ignore = "10k-subscriber memory soak; scripts/soak.sh runs it"]
    fn ten_thousand_subscribers_stay_under_16_kib_each() {
        assert_eq!(SCALING_SMOKE_LADDER, [10_000]);
        let point = measure_scale_point(ctx(), 10_000);
        assert!(
            point.bytes_per_subscriber <= 16 * 1024,
            "{} bytes/subscriber breaches the 16 KiB bound",
            point.bytes_per_subscriber
        );
    }

    #[test]
    fn chaos_sweep_proves_clean_path_identity() {
        let report = run_experiment("chaos-sweep", ctx());
        assert!(
            !report.contains("NO — regression"),
            "robustness layer altered the clean path:\n{report}"
        );
        assert!(report.contains("0.40"), "sweep must reach high intensity");
    }
}
