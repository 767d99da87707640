//! A uniform interface over the paper's benchmark applications, used by the
//! figure/table harnesses in `halide-bench` (Fig. 6, Fig. 7, Fig. 8).

use halide_lang::{analyze, PipelineStats};
use halide_lower::{lower, Module, Result as LowerResult};
use halide_runtime::Buffer;

use crate::{bilateral_grid, blur, camera_pipe, histogram, interpolate, local_laplacian};

/// Which schedule flavour to run an application with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScheduleChoice {
    /// The default breadth-first schedule (every stage computed at root,
    /// serial loops) — the "composing library calls" baseline.
    Naive,
    /// A hand-crafted schedule in the spirit of the paper's tuned results.
    Tuned,
}

/// The applications of the paper's evaluation (Fig. 6 / Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppKind {
    /// Two-stage 3×3 blur (Sec. 3.1).
    Blur,
    /// Histogram equalization (Sec. 2).
    Histogram,
    /// Bilateral grid.
    BilateralGrid,
    /// Camera raw pipeline.
    CameraPipe,
    /// Multi-scale interpolation.
    Interpolate,
    /// Local Laplacian filters.
    LocalLaplacian,
}

impl AppKind {
    /// The five applications of Fig. 6/7 (histogram equalization is the
    /// paper's Sec. 2 example and is reported separately where useful).
    pub const PAPER_APPS: [AppKind; 5] = [
        AppKind::Blur,
        AppKind::BilateralGrid,
        AppKind::CameraPipe,
        AppKind::Interpolate,
        AppKind::LocalLaplacian,
    ];

    /// All applications, including histogram equalization.
    pub const ALL: [AppKind; 6] = [
        AppKind::Blur,
        AppKind::Histogram,
        AppKind::BilateralGrid,
        AppKind::CameraPipe,
        AppKind::Interpolate,
        AppKind::LocalLaplacian,
    ];

    /// The app's display name (matching the paper's tables).
    pub fn name(&self) -> &'static str {
        match self {
            AppKind::Blur => "Blur",
            AppKind::Histogram => "Histogram equalize",
            AppKind::BilateralGrid => "Bilateral grid",
            AppKind::CameraPipe => "Camera pipe",
            AppKind::Interpolate => "Interpolate",
            AppKind::LocalLaplacian => "Local Laplacian",
        }
    }

    /// A short, stable, URL/key-friendly identifier (`blur`, `camera-pipe`,
    /// …) — the name the serving registry addresses an app by. Round-trips
    /// through [`AppKind::from_slug`].
    pub fn slug(&self) -> &'static str {
        match self {
            AppKind::Blur => "blur",
            AppKind::Histogram => "histogram",
            AppKind::BilateralGrid => "bilateral-grid",
            AppKind::CameraPipe => "camera-pipe",
            AppKind::Interpolate => "interpolate",
            AppKind::LocalLaplacian => "local-laplacian",
        }
    }

    /// Parses a slug produced by [`AppKind::slug`].
    pub fn from_slug(slug: &str) -> Option<AppKind> {
        AppKind::ALL.into_iter().find(|a| a.slug() == slug)
    }

    /// Builds a synthetic input of the shape and element type this app
    /// expects at the given image size.
    pub fn make_input(&self, width: i64, height: i64) -> Buffer {
        match self {
            AppKind::Blur => blur::make_input(width, height),
            AppKind::Histogram => histogram::make_input(width, height),
            AppKind::BilateralGrid => bilateral_grid::make_input(width, height),
            AppKind::CameraPipe => camera_pipe::make_raw_input(width, height),
            AppKind::Interpolate => interpolate::make_input(width, height),
            AppKind::LocalLaplacian => local_laplacian::make_input(width, height),
        }
    }

    /// The output extents this app realizes for an input of the given size
    /// (the camera pipe emits three color channels; everything else is
    /// same-shaped).
    pub fn output_extents(&self, width: i64, height: i64) -> Vec<i64> {
        match self {
            AppKind::CameraPipe => vec![width, height, 3],
            _ => vec![width, height],
        }
    }

    /// Builds the app's pipeline with the chosen schedule applied and lowers
    /// it to a reusable [`Module`] — the compile half of compile-once /
    /// realize-many. Some apps bake the image size into the algorithm (the
    /// histogram's reduction domain, the pyramids' depth), so the module is
    /// specific to `width` × `height`; serving layers key their caches on
    /// the shape for exactly this reason.
    ///
    /// # Errors
    ///
    /// Propagates lowering errors.
    pub fn build(
        &self,
        width: i64,
        height: i64,
        schedule: ScheduleChoice,
    ) -> LowerResult<BuiltApp> {
        let tuned = schedule == ScheduleChoice::Tuned;
        let (pipeline, input) = match self {
            AppKind::Blur => {
                let app = blur::BlurApp::new();
                match schedule {
                    ScheduleChoice::Naive => blur::BlurSchedule::BreadthFirst,
                    ScheduleChoice::Tuned => blur::BlurSchedule::ParallelTiledVector,
                }
                .apply(&app);
                (app.pipeline(), app.input)
            }
            AppKind::Histogram => {
                let app = histogram::HistogramApp::new(width as i32, height as i32);
                if tuned {
                    app.schedule_good();
                }
                (app.pipeline(), app.input)
            }
            AppKind::BilateralGrid => {
                let app = bilateral_grid::BilateralGridApp::new();
                if tuned {
                    app.schedule_good();
                }
                (app.pipeline(), app.input)
            }
            AppKind::CameraPipe => {
                let app = camera_pipe::CameraPipeApp::new(2.2, 0.8);
                if tuned {
                    app.schedule_good();
                }
                (app.pipeline(), app.input)
            }
            AppKind::Interpolate => {
                let app = interpolate::InterpolateApp::new(pyramid_levels(width, height));
                if tuned {
                    app.schedule_good();
                }
                (app.pipeline(), app.input)
            }
            AppKind::LocalLaplacian => {
                let levels = pyramid_levels(width, height).min(4);
                let app = local_laplacian::LocalLaplacianApp::new(levels, 8, 1.0, 0.7);
                if tuned {
                    app.schedule_good();
                }
                (app.pipeline(), app.input)
            }
        };
        Ok(BuiltApp {
            module: lower(&pipeline)?,
            input_name: input.name().to_string(),
            stats: analyze(&pipeline),
        })
    }

    /// Runs the hand-written reference ("expert") implementation where one is
    /// provided, returning its wall-clock time.
    pub fn reference_time(
        &self,
        width: i64,
        height: i64,
        threads: usize,
    ) -> Option<std::time::Duration> {
        let start = std::time::Instant::now();
        match self {
            AppKind::Blur => {
                let input = blur::make_input(width, height);
                let t = std::time::Instant::now();
                let _ = blur::reference_optimized(&input, threads);
                return Some(t.elapsed());
            }
            AppKind::Histogram => {
                let input = histogram::make_input(width, height);
                let t = std::time::Instant::now();
                let _ = histogram::reference_optimized(&input);
                return Some(t.elapsed());
            }
            AppKind::BilateralGrid => {
                let input = bilateral_grid::make_input(width, height);
                let t = std::time::Instant::now();
                let _ = bilateral_grid::reference(&input);
                return Some(t.elapsed());
            }
            _ => {}
        }
        let _ = start;
        None
    }
}

/// The result of [`AppKind::build`]: a lowered module plus the binding
/// metadata a caller needs to realize it repeatedly.
#[derive(Debug)]
pub struct BuiltApp {
    /// The lowered, reusable module.
    pub module: Module,
    /// Name the input image must be bound under.
    pub input_name: String,
    /// Structural statistics of the pipeline (Fig. 6).
    pub stats: PipelineStats,
}

/// Picks a pyramid depth appropriate for an image size (at least 2, at most 6).
pub fn pyramid_levels(width: i64, height: i64) -> usize {
    let mut levels = 2usize;
    let mut size = width.min(height);
    while size >= 32 && levels < 6 {
        size /= 2;
        levels += 1;
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_app_runs_under_naive_and_tuned_schedules() {
        for app in AppKind::ALL {
            for schedule in [ScheduleChoice::Naive, ScheduleChoice::Tuned] {
                let built = app
                    .build(64, 64, schedule)
                    .unwrap_or_else(|e| panic!("{}: lowering failed: {e}", app.name()));
                let realization = halide_exec::Realizer::new(&built.module)
                    .input(built.input_name, app.make_input(64, 64))
                    .threads(2)
                    .realize(&app.output_extents(64, 64))
                    .unwrap_or_else(|e| panic!("{}: execution failed: {e}", app.name()));
                assert!(built.stats.functions >= 2, "{} too small", app.name());
                assert!(!realization.output.is_empty());
            }
        }
    }

    #[test]
    fn pyramid_levels_scale_with_size() {
        assert_eq!(pyramid_levels(16, 16), 2);
        assert!(pyramid_levels(64, 64) > pyramid_levels(32, 32));
        assert_eq!(pyramid_levels(100_000, 100_000), 6);
    }

    #[test]
    fn references_exist_for_key_apps() {
        assert!(AppKind::Blur.reference_time(64, 64, 2).is_some());
        assert!(AppKind::Histogram.reference_time(64, 64, 1).is_some());
        assert!(AppKind::LocalLaplacian.reference_time(64, 64, 1).is_none());
    }
}
