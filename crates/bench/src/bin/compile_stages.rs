//! Where a plan-cache miss spends its time, per benchmark tile class.
//!
//! Every tile class of the `gbed_oneshot` image sizes (24×24, 33×27, 40×40,
//! 64×48 at the default 10×10 tile) is planned, for each variant, on a
//! fresh `TilePlanner` whose configuration carries an enabled
//! `TelemetrySink`, so every plan is a miss. Per class the bin prints the
//! node and step counts, and the mean µs per miss of each compile stage
//! (validate, scc-infer, repair, emit) and of the graph build. Stage times
//! are the sink's stage totals; the build is the miss span minus the
//! compile span (it also holds the tile's pixel gather and its sink-layout
//! lookup). The compile ledger thus comes from the same telemetry a traced
//! run records.
//!
//! It prints times only and gates on nothing: timings swing with the host.
//! `--quick` plans each class 3 times instead of 100.
//!
//! ```text
//! cargo run --release -p sc_bench --bin compile_stages [-- --quick]
//! ```

use sc_bench::print_table;
use sc_image::{
    tile_origins, GrayImage, PipelineConfig, PipelineStats, PipelineVariant, TelemetrySink,
    TilePlanner,
};
use sc_telemetry::Stage;

/// The `gbed_oneshot` image sizes.
const SIZES: [(usize, usize); 4] = [(24, 24), (33, 27), (40, 40), (64, 48)];

/// The stages timed per miss, in print order, after the build column.
const STAGES: [(Stage, &str); 4] = [
    (Stage::CompileValidate, "validate"),
    (Stage::CompilePlan, "scc-infer"),
    (Stage::CompileRepair, "repair"),
    (Stage::CompileEmit, "emit"),
];

/// One tile class: a representative tile of it, by image and origin.
struct Class {
    variant: PipelineVariant,
    /// Tile width, height and source-bank phase (x0 mod 4, y0 mod 2).
    key: (usize, usize, usize, usize),
    image: GrayImage,
    origin: (usize, usize),
    tile_index: u64,
}

/// The distinct tile classes of the benchmark sizes, per variant.
fn classes(config: &PipelineConfig) -> Vec<Class> {
    let mut out: Vec<Class> = Vec::new();
    for variant in PipelineVariant::all() {
        for (width, height) in SIZES {
            let image = GrayImage::gradient(width, height);
            for (i, (x0, y0)) in tile_origins(&image, config.tile_size)
                .into_iter()
                .enumerate()
            {
                let key = (
                    config.tile_size.min(width - x0),
                    config.tile_size.min(height - y0),
                    x0 % 4,
                    y0 % 2,
                );
                if !out.iter().any(|c| c.variant == variant && c.key == key) {
                    out.push(Class {
                        variant,
                        key,
                        image: image.clone(),
                        origin: (x0, y0),
                        tile_index: i as u64,
                    });
                }
            }
        }
    }
    out
}

/// Mean µs per miss of one stage's spans over `reps` misses.
fn mean_us(report: &sc_telemetry::TelemetryReport, stage: Stage, reps: u32) -> f64 {
    report.stage_totals(stage).1 as f64 / 1e3 / f64::from(reps)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let reps: u32 = if quick { 3 } else { 100 };
    let config = PipelineConfig::default();
    let mut rows = Vec::new();
    let mut totals = [0.0f64; 1 + STAGES.len()];
    let classes = classes(&config);
    for class in &classes {
        let sink = TelemetrySink::new();
        let traced = config.clone().with_telemetry(sink.clone());
        let mut steps = 0;
        let mut nodes = 0;
        for _ in 0..reps {
            let mut planner = TilePlanner::new(class.variant, traced.clone());
            let mut stats = PipelineStats::default();
            let (x0, y0) = class.origin;
            let tile = planner.plan_tile(&class.image, x0, y0, class.tile_index, &mut stats);
            assert_eq!(stats.compilations, 1, "a fresh planner misses");
            steps = tile.plan.step_count();
            // One step per node: the source graph's plus the repairs.
            nodes = steps - tile.plan.report().inserted.len();
        }
        let report = sink.drain();
        assert_eq!(report.dropped_spans, 0, "the span ring held every miss");
        let build =
            mean_us(&report, Stage::PlanCacheMiss, reps) - mean_us(&report, Stage::Compile, reps);
        let mut times = vec![build];
        times.extend(
            STAGES
                .iter()
                .map(|&(stage, _)| mean_us(&report, stage, reps)),
        );
        for (total, t) in totals.iter_mut().zip(&times) {
            *total += t;
        }
        let (w, h, px, py) = class.key;
        let mut row = vec![
            class.variant.label().to_string(),
            format!("{w}x{h}@{px},{py}"),
            nodes.to_string(),
            steps.to_string(),
        ];
        row.extend(times.iter().map(|t| format!("{t:.1}")));
        rows.push(row);
    }
    let mut mean = vec![
        "mean".to_string(),
        String::new(),
        String::new(),
        String::new(),
    ];
    mean.extend(
        totals
            .iter()
            .map(|t| format!("{:.1}", t / classes.len() as f64)),
    );
    rows.push(mean);
    let mut header = vec!["variant", "class", "nodes", "steps", "build"];
    header.extend(STAGES.iter().map(|&(_, name)| name));
    print_table(
        &format!(
            "Plan-cache miss cost per tile class (mean of {reps} misses, µs; stages from telemetry)"
        ),
        &header,
        &rows,
    );
}
