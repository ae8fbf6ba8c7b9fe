//! End-to-end tests of the RISC-V ELF ingestion front end: a `riscv:<path>`
//! workload must round-trip `concorde precompute` → `serve --preload` → TCP
//! predict with bitwise-stable answers across two independent service runs,
//! and the vendored test binaries must stay in sync with their generator.

use concorde_suite::core::cache::{sweep_content_hash, FeatureKey};
use concorde_suite::prelude::*;
use concorde_suite::riscv;

/// Absolute path of a vendored test binary under `riscv-testdata/`.
fn vendored(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("riscv-testdata")
        .join(format!("{name}.elf"))
}

/// Small but real model + profile (trained once, deterministically).
fn tiny_service_parts() -> (ConcordePredictor, ReproProfile) {
    let mut profile = ReproProfile::quick();
    profile.region_len = 2_048;
    profile.warmup_len = 2_048;
    profile.epochs = 2;
    let data = generate_dataset(&DatasetConfig {
        profile: profile.clone(),
        n: 16,
        seed: 11,
        arch: ArchSampling::Random,
        workloads: Some(vec![15, 20]),
        threads: 0,
    });
    let model = train_model(&data, &profile, &TrainOptions::default());
    (model, profile)
}

fn quick_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        max_batch: 64,
        ..ServeConfig::default()
    }
}

/// The vendored ELFs are exactly what `gen-riscv-testdata` emits today; a
/// drifted generator must fail loudly, not silently change every
/// determinism baseline downstream.
#[test]
fn vendored_elves_match_generator_output() {
    let programs = riscv::testdata::programs();
    assert!(programs.len() >= 3, "at least three vendored workloads");
    for (name, bytes) in &programs {
        let on_disk = std::fs::read(vendored(name))
            .unwrap_or_else(|e| panic!("vendored {name}.elf unreadable: {e}"));
        assert_eq!(
            &on_disk, bytes,
            "{name}.elf drifted from testdata::programs(); rerun gen-riscv-testdata"
        );
    }
}

/// Two fully independent parse+execute passes over the same binary produce
/// bitwise-identical instruction streams, hashes, and final machine state.
#[test]
fn ingestion_is_bitwise_deterministic_per_binary() {
    for (name, _) in riscv::testdata::programs() {
        let bytes = std::fs::read(vendored(name)).expect("vendored ELF");
        let a = riscv::execute(
            &riscv::parse_elf32(&bytes).unwrap(),
            riscv::DEFAULT_MAX_INSTS,
        );
        let b = riscv::execute(
            &riscv::parse_elf32(&bytes).unwrap(),
            riscv::DEFAULT_MAX_INSTS,
        );
        assert!(a.halt.is_clean_exit(), "{name}: {:?}", a.halt);
        assert_eq!(a.trace_hash(), b.trace_hash(), "{name}: trace hash drifted");
        assert_eq!(a.trace, b.trace, "{name}: instruction stream drifted");
        assert_eq!(a.regs, b.regs, "{name}: final registers drifted");
    }
}

/// The full serving round trip: build the feature store offline exactly as
/// `concorde precompute` does, preload it, and query the riscv workload over
/// real TCP. The first query must be a cache hit, match the in-process
/// client bitwise, and repeat bitwise-identically in a second, fully
/// independent service run.
#[test]
fn riscv_workload_round_trips_precompute_preload_and_tcp_predict() {
    riscv::install();
    let elf = vendored("sum_loop");
    // A tight budget keeps the recorded trace small; the budget is part of
    // the workload id, so it is part of every cache key too.
    let id = format!("riscv:{}@65536", elf.display());

    let (model, profile) = tiny_service_parts();
    let resolved = resolve_workload(&id).expect("riscv id resolves");
    assert_eq!(resolved.spec().trace_len, 65_536, "budget-capped trace");
    let region = resolved.materialize(0, 0, profile.region_len);
    assert_eq!(region.instrs.len(), profile.region_len);

    // Offline store build, exactly as `concorde precompute` does (start 0 →
    // empty warmup, per the warm_start = start - warmup_len convention).
    let arch = MicroArch::arm_n1();
    let sweep = SweepConfig::for_arch(&arch);
    let store = FeatureStore::precompute(&[], &region.instrs, &sweep, &profile);
    let key = FeatureKey {
        workload: id.clone().into(),
        trace: 0,
        start: 0,
        region_len: profile.region_len as u32,
        sweep_hash: sweep_content_hash(&sweep),
    };
    let artifact = std::env::temp_dir().join("concorde_riscv_e2e.cfa");
    StoreArtifact::new(key, store).save(&artifact).unwrap();

    // One independent service run: preload, serve TCP, query, and return
    // the answer's bits. The service leaks because `serve_tcp` holds `&self`
    // on a detached accept thread for the remainder of the test process.
    let serve_once = |model: ConcordePredictor, profile: ReproProfile| -> u64 {
        let service = Box::leak(Box::new(PredictionService::start(
            model,
            profile,
            quick_config(),
        )));
        let loaded = service.preload_artifact(&artifact).unwrap();
        assert_eq!(loaded.workload, id.as_str());

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let svc: &PredictionService = service;
        std::thread::spawn(move || {
            let _ = svc.serve_tcp(listener);
        });

        let mut tcp = TcpClient::connect(&addr).expect("connect");
        let req = PredictRequest::new(7, &id, ArchSpec::base("n1"));
        let resp = tcp.predict(&req).expect("tcp predict");
        assert_eq!(resp.error, None, "{:?}", resp.error);
        assert!(
            resp.cached,
            "first query against the preloaded riscv region must be a cache hit"
        );
        let cpi = resp.cpi.expect("cpi on success");
        assert!(cpi.is_finite() && cpi > 0.0, "CPI {cpi} must be physical");

        // The wire answer equals the in-process client's answer bitwise.
        let direct = service
            .client()
            .predict(PredictRequest::new(8, &id, ArchSpec::base("n1")))
            .unwrap();
        assert_eq!(cpi.to_bits(), direct.cpi.unwrap().to_bits());

        let m = service.metrics();
        assert_eq!(m.cache_misses, 0, "preload must satisfy every query");
        assert!(m.cache_hits >= 1);
        cpi.to_bits()
    };

    let first = serve_once(model.clone(), profile.clone());
    let second = serve_once(model, profile);
    std::fs::remove_file(&artifact).ok();
    assert_eq!(
        first, second,
        "two independent service runs must answer bitwise-identically"
    );
}

/// On-demand resolution of client-supplied dynamic ids is opt-in and
/// confined: refused by default (suite ids and preregistered workloads
/// still serve), allowed when the operator sets a dynamic-workloads root
/// containing the ELF, budget-capped, and answering every
/// filesystem-dependent failure with one uniform message so error text
/// cannot probe the server's filesystem.
#[test]
fn wire_dynamic_resolution_is_opt_in_and_confined() {
    riscv::install();
    let (model, profile) = tiny_service_parts();
    let elf = vendored("sum_loop");
    // A budget no other test uses keeps this id genuinely unseen by the
    // process-global registry.
    let id = format!("riscv:{}@65521", elf.display());
    let predict = |client: &Client, req_id: u64, workload: &str| {
        client
            .predict(PredictRequest::new(req_id, workload, ArchSpec::base("n1")))
            .expect("submit")
    };

    // Default config (no root): the unseen id is refused with the opt-in
    // message and nothing gets registered or executed.
    let service = PredictionService::start(model.clone(), profile.clone(), quick_config());
    let client = service.client();
    let err = predict(&client, 1, &id).error.expect("must be refused");
    assert!(err.contains("dynamic resolution is disabled"), "{err}");
    assert!(
        resolve_registered(&id).is_none(),
        "a refused id must not have been resolved"
    );
    assert_eq!(
        predict(&client, 2, "S5").error,
        None,
        "suite ids still serve"
    );
    drop(service);

    // Opted in with the vendored-binaries directory as root: the same id
    // now resolves and serves end to end.
    let cfg = ServeConfig {
        dynamic_root: Some(std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("riscv-testdata")),
        ..quick_config()
    };
    let service = PredictionService::start(model, profile, cfg);
    let client = service.client();
    let ok = predict(&client, 3, &id);
    assert_eq!(ok.error, None, "{:?}", ok.error);
    assert!(ok.cpi.expect("cpi") > 0.0);

    // A budget beyond the server-side cap is a typed refusal (computed
    // from the id alone — safe to echo).
    let huge = format!(
        "riscv:{}@{}",
        elf.display(),
        concorde_suite::serve::MAX_WIRE_RISCV_BUDGET + 1
    );
    let err = predict(&client, 4, &huge).error.expect("capped");
    assert!(err.contains("exceeds the served maximum"), "{err}");

    // Escaping the root and probing nonexistent paths draw the same
    // uniform answer: no ENOENT-vs-exists oracle, no io::Error text.
    let escape = "riscv:/etc/hostname@65522";
    let missing = "riscv:/nonexistent/probe.elf@65522";
    let e1 = predict(&client, 5, escape).error.expect("refused");
    let e2 = predict(&client, 6, missing).error.expect("refused");
    assert!(e1.contains("not servable"), "{e1}");
    let tail = |e: &str, id: &str| e.replace(id, "<id>");
    assert_eq!(
        tail(&e1, escape),
        tail(&e2, missing),
        "in-root and out-of-root failures must be indistinguishable"
    );
}
