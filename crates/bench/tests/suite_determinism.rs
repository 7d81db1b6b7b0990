//! The harness determinism contract: for any `--jobs` value the suite
//! produces byte-identical reports (rendered text, metrics JSON, simulated
//! cycle counts) in E1..E19 order, each carrying the id its `SUITE` slug
//! names. Only `wall_ms` may differ, and it is excluded from
//! `deterministic_bytes`.

use apiary_bench::harness;

#[test]
fn jobs_1_and_jobs_8_are_byte_identical() {
    let serial = harness::run_suite(harness::SUITE, true, 1);
    let parallel = harness::run_suite(harness::SUITE, true, 8);
    assert_eq!(serial.len(), harness::SUITE.len());
    assert_eq!(parallel.len(), harness::SUITE.len());
    let mut last_num = 0u32;
    for ((&(slug, _), a), b) in harness::SUITE.iter().zip(&serial).zip(&parallel) {
        // Each report carries the id its suite slug names, so `--only`
        // ids and result-file paths agree with the reports themselves.
        assert_eq!(a.id, harness::slug_id(slug), "report from {slug}");
        assert_eq!(harness::result_file(a.id), format!("results/{slug}.json"));
        // Suite order: numeric experiment ids strictly ascending.
        let num: u32 = a.id.trim_start_matches('E').parse().expect("E<n> id");
        assert!(num > last_num, "suite order: {} after E{last_num}", a.id);
        last_num = num;
        assert_eq!(a.id, b.id);
        assert_eq!(
            a.deterministic_bytes(),
            b.deterministic_bytes(),
            "{} differs between --jobs 1 and --jobs 8",
            a.id
        );
        assert_eq!(
            a.metrics.render(),
            b.metrics.render(),
            "{} metrics JSON differs across job counts",
            a.id
        );
    }
}
