//! The registry of named, servable pipeline variants.
//!
//! A serving deployment addresses pipelines by stable string names
//! (`"blur/tuned"`, `"camera-pipe/naive"`), the way a service mesh addresses
//! components — the registry maps those names to an [`AppKind`] plus a
//! [`ScheduleChoice`]. Lowered modules themselves live in the server's
//! program cache, not here: several apps bake the image size into the
//! algorithm (the histogram's reduction domain, the pyramids' depth), so a
//! *name* can serve any shape while each *(name, shape)* compiles once.

use std::collections::BTreeMap;

use halide_pipelines::{AppKind, ScheduleChoice};

/// What a registry name resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppSpec {
    /// Which application.
    pub app: AppKind,
    /// Which schedule variant of it.
    pub schedule: ScheduleChoice,
}

/// A name → pipeline-variant table.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    entries: BTreeMap<String, AppSpec>,
}

/// The canonical name for an app/schedule pair: `<app slug>/<variant>`.
pub fn canonical_name(app: AppKind, schedule: ScheduleChoice) -> String {
    let variant = match schedule {
        ScheduleChoice::Naive => "naive",
        ScheduleChoice::Tuned => "tuned",
    };
    format!("{}/{variant}", app.slug())
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry preloaded with every paper pipeline in both variants
    /// (`blur/naive`, `blur/tuned`, …, `local-laplacian/tuned`).
    pub fn with_paper_apps() -> Self {
        let mut r = Registry::new();
        for app in AppKind::ALL {
            for schedule in [ScheduleChoice::Naive, ScheduleChoice::Tuned] {
                r.register(canonical_name(app, schedule), app, schedule);
            }
        }
        r
    }

    /// Registers (or replaces) a name.
    pub fn register(&mut self, name: impl Into<String>, app: AppKind, schedule: ScheduleChoice) {
        self.entries.insert(name.into(), AppSpec { app, schedule });
    }

    /// Resolves a name.
    pub fn get(&self, name: &str) -> Option<AppSpec> {
        self.entries.get(name).copied()
    }

    /// Every registered name, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }

    /// Number of registered names.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_registry_covers_every_app_twice() {
        let r = Registry::with_paper_apps();
        assert_eq!(r.len(), AppKind::ALL.len() * 2);
        let spec = r.get("blur/tuned").unwrap();
        assert_eq!(spec.app, AppKind::Blur);
        assert_eq!(spec.schedule, ScheduleChoice::Tuned);
        assert!(r.get("sharpen/tuned").is_none());
        assert!(!r.is_empty());
    }

    #[test]
    fn names_are_sorted_and_custom_names_register() {
        let mut r = Registry::new();
        r.register("zeta", AppKind::Blur, ScheduleChoice::Naive);
        r.register("alpha", AppKind::Histogram, ScheduleChoice::Tuned);
        assert_eq!(r.names(), vec!["alpha", "zeta"]);
    }
}
