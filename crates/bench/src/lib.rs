//! # concorde-bench
//!
//! Experiment harness for the Concorde reproduction: one module (and one
//! thin binary) per table and figure of the paper's evaluation, sharing a
//! disk-cached dataset + trained model through [`Ctx`].
//!
//! Run `cargo run -p concorde-bench --release --bin run_all` to regenerate
//! everything; individual binaries (`fig05_accuracy`, `fig16_attribution`, …)
//! rebuild just their artifact. All outputs land in
//! `target/concorde-artifacts/` as JSON plus human-readable stdout tables.

#![allow(missing_docs)]

pub mod experiments;

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use concorde_core::prelude::*;
use serde::de::DeserializeOwned;
use serde::Serialize;

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny: CI-fast smoke runs.
    Quick,
    /// Default scaled reproduction (README, "Reproducing the paper").
    Default,
    /// Bigger run (closer to the paper; slower).
    Full,
}

impl Scale {
    /// Parses `--quick` / `--full` from CLI args.
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--quick") {
            Scale::Quick
        } else if args.iter().any(|a| a == "--full") {
            Scale::Full
        } else {
            Scale::Default
        }
    }

    /// The repro profile for this scale.
    pub fn profile(&self) -> ReproProfile {
        match self {
            Scale::Quick => {
                let mut p = ReproProfile::quick();
                p.train_samples = 300;
                p.test_samples = 60;
                p.epochs = 15;
                p.region_len = 8_192;
                p.warmup_len = 8_192;
                p
            }
            Scale::Default => ReproProfile::default_repro(),
            Scale::Full => {
                let mut p = ReproProfile::default_repro();
                p.train_samples = 30_000;
                p.test_samples = 4_000;
                p.epochs = 60;
                p
            }
        }
    }
}

/// Shared experiment context: profile, artifact directory, and lazily built
/// (disk-cached) main dataset + model.
pub struct Ctx {
    pub scale: Scale,
    pub profile: ReproProfile,
    pub dir: PathBuf,
    main: OnceLock<MainData>,
}

/// The shared train/test split and the full-variant model.
pub struct MainData {
    pub train: Vec<Sample>,
    pub test: Vec<Sample>,
    pub model: ConcordePredictor,
}

impl Ctx {
    /// Creates a context from CLI args (`--quick`/`--full`).
    pub fn from_args() -> Ctx {
        Ctx::new(Scale::from_args())
    }

    /// Creates a context at the given scale.
    pub fn new(scale: Scale) -> Ctx {
        let profile = scale.profile();
        let dir = artifacts_dir();
        std::fs::create_dir_all(&dir).expect("create artifacts dir");
        Ctx {
            scale,
            profile,
            dir,
            main: OnceLock::new(),
        }
    }

    fn cache_tag(&self) -> String {
        format!(
            "n{}t{}r{}e{}",
            self.profile.train_samples,
            self.profile.test_samples,
            self.profile.region_len,
            self.profile.encoding.dim()
        )
    }

    /// Returns (building and disk-caching on first use) the shared dataset
    /// and trained full-variant model.
    pub fn main_data(&self) -> &MainData {
        self.main.get_or_init(|| {
            let tag = self.cache_tag();
            let train_p = self.dir.join(format!("train_{tag}.json"));
            let test_p = self.dir.join(format!("test_{tag}.json"));
            let model_p = self.dir.join(format!("model_{tag}.json"));
            if train_p.exists() && test_p.exists() && model_p.exists() {
                eprintln!("[ctx] loading cached dataset + model ({tag})");
                if let (Some(train), Some(test), Ok(model)) = (
                    load_json::<Vec<Sample>>(&train_p),
                    load_json::<Vec<Sample>>(&test_p),
                    ConcordePredictor::load(&model_p),
                ) {
                    return MainData { train, test, model };
                }
                eprintln!("[ctx] cache unreadable; regenerating");
            }
            eprintln!("[ctx] generating dataset ({tag}) …");
            let t0 = std::time::Instant::now();
            let train = generate_dataset(&DatasetConfig::random(
                self.profile.clone(),
                self.profile.train_samples,
                1,
            ));
            let test = generate_dataset(&DatasetConfig::random(
                self.profile.clone(),
                self.profile.test_samples,
                2,
            ));
            eprintln!("[ctx] dataset generated in {:?}; training …", t0.elapsed());
            let t1 = std::time::Instant::now();
            let model = train_model(
                &train,
                &self.profile,
                &TrainOptions {
                    verbose: true,
                    ..TrainOptions::default()
                },
            );
            eprintln!("[ctx] trained in {:?}", t1.elapsed());
            save_json(&train_p, &train);
            save_json(&test_p, &test);
            model.save(&model_p).expect("save model");
            MainData { train, test, model }
        })
    }

    /// Writes an experiment report JSON into the artifacts directory.
    pub fn write_report<T: Serialize>(&self, name: &str, value: &T) {
        let p = self.dir.join(format!("{name}.json"));
        save_json(&p, value);
        eprintln!("[artifact] {}", p.display());
    }
}

/// `target/concorde-artifacts` relative to the workspace root.
pub fn artifacts_dir() -> PathBuf {
    let mut dir = std::env::current_dir().expect("cwd");
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.exists() {
            if let Ok(s) = std::fs::read_to_string(&manifest) {
                if s.contains("[workspace]") {
                    break;
                }
            }
        }
        if !dir.pop() {
            dir = std::env::current_dir().expect("cwd");
            break;
        }
    }
    dir.join("target").join("concorde-artifacts")
}

/// Serializes `value` as JSON at `path`.
pub fn save_json<T: Serialize>(path: &Path, value: &T) {
    let f = std::fs::File::create(path).expect("create artifact file");
    serde_json::to_writer(std::io::BufWriter::new(f), value).expect("serialize artifact");
}

/// Loads JSON from `path`, returning `None` on any error.
pub fn load_json<T: DeserializeOwned>(path: &Path) -> Option<T> {
    let f = std::fs::File::open(path).ok()?;
    serde_json::from_reader(std::io::BufReader::new(f)).ok()
}

/// Renders a simple aligned text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (w, c) in widths.iter().zip(cells) {
            s.push_str(&format!("{c:<width$}  ", width = w));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}
