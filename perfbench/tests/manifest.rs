//! `BENCHMARK.json` at the repository root declares the same workloads
//! and metrics, in the same order, as the benchmark prints.

use deepum_perfbench::metrics::{Better, Metric, END_TO_END, PER_LAYER};
use deepum_perfbench::workloads::Kind;

fn manifest() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark directory")
}

/// The `{...}` objects of the array under `key`.
fn objects<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
    let start = text
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("no {key} array"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("array is closed")];
    body.split('{')
        .skip(1)
        .map(|o| o.split('}').next().unwrap_or(""))
        .collect()
}

/// The value of `"field": <value>` in one flat object, quotes removed.
fn field<'a>(object: &'a str, name: &str) -> Option<&'a str> {
    let at = object.find(&format!("\"{name}\":"))? + name.len() + 3;
    let rest = object[at..].trim_start();
    if let Some(quoted) = rest.strip_prefix('"') {
        return quoted.split('"').next();
    }
    rest.split(',').next().map(str::trim)
}

fn check(list: &[Metric], key: &str, with_bound: bool) {
    let text = manifest();
    let objs = objects(&text, key);
    assert_eq!(
        objs.len(),
        list.len(),
        "{key}: count differs from the registry"
    );
    for (m, o) in list.iter().zip(&objs) {
        assert_eq!(field(o, "name"), Some(m.name), "{key}: order or name");
        assert_eq!(field(o, "unit"), Some(m.unit), "{}: unit", m.name);
        let better = match m.better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        assert_eq!(field(o, "better"), Some(better), "{}: better", m.name);
        if with_bound {
            let bound: f64 = field(o, "bound")
                .and_then(|b| b.parse().ok())
                .unwrap_or_else(|| panic!("{}: bound", m.name));
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
    }
}

#[test]
fn end_to_end_metrics_match_the_registry() {
    check(END_TO_END, "end_to_end", true);
}

#[test]
fn per_layer_metrics_match_the_registry() {
    check(PER_LAYER, "per_layer", false);
}

#[test]
fn workloads_match_the_command() {
    let text = manifest();
    let objs = objects(&text, "workloads");
    let names: Vec<_> = objs
        .iter()
        .map(|o| field(o, "name").unwrap_or(""))
        .collect();
    let ours: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn setup_has_the_largest_bound() {
    let text = manifest();
    let objs = objects(&text, "end_to_end");
    let bound = |o: &&str| {
        field(o, "bound")
            .and_then(|b| b.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let setup = objs
        .iter()
        .find(|o| field(o, "name") == Some("setup_s"))
        .map(bound)
        .expect("setup_s declared");
    assert!(objs.iter().all(|o| bound(o) <= setup));
}
