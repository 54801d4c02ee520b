//! In-repo validator for the Prometheus text exposition format.
//!
//! `GET /metrics` is consumed by machines; a malformed exposition fails
//! silently at scrape time, far from the code that broke it. This
//! module lets unit tests, integration tests, and CI (`cesim
//! metrics-check`) assert that a whole scrape body is well-formed:
//!
//! * every sample's metric family declares `# HELP` and `# TYPE`
//!   **before** its first sample, and declares them exactly once;
//! * metric and label names match the Prometheus grammar, label values
//!   only use the legal escapes (`\\`, `\"`, `\n`);
//! * every sample value parses as a float (`+Inf`/`-Inf`/`NaN` legal);
//! * no `(name, label-set)` appears twice;
//! * histograms are internally consistent: `_bucket` counts are
//!   monotonically non-decreasing in `le` order, the `+Inf` bucket
//!   equals `_count`, and `_sum`/`_count` are present for every series;
//! * OpenMetrics exemplars (` # {trace_id="…"} value`) appear only on
//!   histogram `_bucket` samples, with a well-formed non-empty label
//!   set and exactly one float value.
//!
//! The checks intentionally cover only what this daemon emits (no
//! `# EOF`, no timestamps on samples or exemplars) — a sample with a
//! timestamp is rejected, because none of our renderers produce one.
//! Likewise ` # ` inside a label value would be misread as an exemplar
//! separator; our label values (endpoints, versions) never contain it.

use std::collections::{BTreeMap, HashSet};

/// Summary of a validated exposition.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PromStats {
    /// Metric families declared with `# TYPE`.
    pub families: usize,
    /// Total samples (including `_bucket`/`_sum`/`_count`).
    pub samples: usize,
    /// Families of type `histogram`.
    pub histograms: usize,
}

fn valid_metric_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Parse `{a="x",b="y"}` (already stripped of braces) into sorted
/// `(name, value)` pairs, enforcing the escape rules.
fn parse_labels(body: &str, line_no: usize) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = body;
    loop {
        rest = rest.trim_start_matches(',');
        if rest.is_empty() {
            break;
        }
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("line {line_no}: label without '='"))?;
        let name = &rest[..eq];
        if !valid_label_name(name) {
            return Err(format!("line {line_no}: bad label name {name:?}"));
        }
        rest = &rest[eq + 1..];
        if !rest.starts_with('"') {
            return Err(format!("line {line_no}: label value must be quoted"));
        }
        rest = &rest[1..];
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, e @ ('\\' | '"' | 'n'))) => {
                        value.push(if e == 'n' { '\n' } else { e });
                    }
                    other => {
                        return Err(format!(
                            "line {line_no}: illegal escape \\{}",
                            other.map(|(_, c)| c).unwrap_or(' ')
                        ))
                    }
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                _ => value.push(c),
            }
        }
        let end = end.ok_or_else(|| format!("line {line_no}: unterminated label value"))?;
        labels.push((name.to_string(), value));
        rest = &rest[end + 1..];
        if !rest.is_empty() && !rest.starts_with(',') {
            return Err(format!("line {line_no}: expected ',' between labels"));
        }
    }
    labels.sort();
    Ok(labels)
}

fn parse_value(s: &str, line_no: usize) -> Result<f64, String> {
    match s {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        _ => s
            .parse::<f64>()
            .map_err(|_| format!("line {line_no}: bad sample value {s:?}")),
    }
}

/// Family base name for a sample: histograms emit `_bucket`/`_sum`/
/// `_count` under their declared family name.
fn base_name<'a>(sample: &'a str, histograms: &HashSet<String>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stem) = sample.strip_suffix(suffix) {
            if histograms.contains(stem) {
                return stem;
            }
        }
    }
    sample
}

/// One parsed histogram series (a label set minus `le`).
#[derive(Default)]
struct HistSeries {
    /// `(le, cumulative count)` in appearance order.
    buckets: Vec<(f64, f64)>,
    sum: Option<f64>,
    count: Option<f64>,
}

/// Validate a full text exposition. Returns summary counts on success,
/// the first problem found (with its line number) otherwise.
pub fn validate_prometheus(text: &str) -> Result<PromStats, String> {
    let mut helped: HashSet<String> = HashSet::new();
    let mut typed: BTreeMap<String, String> = BTreeMap::new();
    let mut histograms: HashSet<String> = HashSet::new();
    let mut seen_sample_of: HashSet<String> = HashSet::new();
    let mut seen_series: HashSet<String> = HashSet::new();
    let mut hist_series: BTreeMap<(String, String), HistSeries> = BTreeMap::new();
    let mut samples = 0usize;

    for (idx, line) in text.lines().enumerate() {
        let line_no = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let (kind, rest) = rest
                .split_once(' ')
                .ok_or_else(|| format!("line {line_no}: bare comment marker"))?;
            match kind {
                "HELP" => {
                    let name = rest.split_whitespace().next().unwrap_or("");
                    if !valid_metric_name(name) {
                        return Err(format!("line {line_no}: bad metric name in HELP"));
                    }
                    if !helped.insert(name.to_string()) {
                        return Err(format!("line {line_no}: duplicate HELP for {name}"));
                    }
                    if seen_sample_of.contains(name) {
                        return Err(format!("line {line_no}: HELP for {name} after its samples"));
                    }
                }
                "TYPE" => {
                    let mut parts = rest.split_whitespace();
                    let name = parts.next().unwrap_or("");
                    let ty = parts.next().unwrap_or("");
                    if !valid_metric_name(name) {
                        return Err(format!("line {line_no}: bad metric name in TYPE"));
                    }
                    if !matches!(
                        ty,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(format!("line {line_no}: unknown type {ty:?}"));
                    }
                    if !helped.contains(name) {
                        return Err(format!(
                            "line {line_no}: TYPE for {name} without HELP first"
                        ));
                    }
                    if typed.insert(name.to_string(), ty.to_string()).is_some() {
                        return Err(format!("line {line_no}: duplicate TYPE for {name}"));
                    }
                    if seen_sample_of.contains(name) {
                        return Err(format!("line {line_no}: TYPE for {name} after its samples"));
                    }
                    if ty == "histogram" {
                        histograms.insert(name.to_string());
                    }
                }
                _ => return Err(format!("line {line_no}: unknown comment {kind:?}")),
            }
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("line {line_no}: comment must start with \"# \""));
        }

        // Sample line: name[{labels}] value [ # {labels} exemplar-value]
        let (line, exemplar) = match line.split_once(" # ") {
            Some((main, ex)) => (main, Some(ex)),
            None => (line, None),
        };
        let (series, value_part) = match line.find('{') {
            Some(brace) => {
                let close = line
                    .rfind('}')
                    .ok_or_else(|| format!("line {line_no}: unmatched '{{'"))?;
                (
                    (&line[..brace], &line[brace + 1..close]),
                    line[close + 1..].trim(),
                )
            }
            None => {
                let sp = line
                    .find(' ')
                    .ok_or_else(|| format!("line {line_no}: sample without value"))?;
                ((&line[..sp], ""), line[sp + 1..].trim())
            }
        };
        let (name, label_body) = series;
        if !valid_metric_name(name) {
            return Err(format!("line {line_no}: bad metric name {name:?}"));
        }
        if value_part.split_whitespace().count() != 1 {
            return Err(format!(
                "line {line_no}: expected exactly one value (timestamps are not emitted here)"
            ));
        }
        let value = parse_value(value_part, line_no)?;
        let labels = parse_labels(label_body, line_no)?;

        let base = base_name(name, &histograms);
        if !helped.contains(base) || !typed.contains_key(base) {
            return Err(format!(
                "line {line_no}: sample {name} without prior HELP+TYPE for {base}"
            ));
        }
        seen_sample_of.insert(base.to_string());
        samples += 1;

        if let Some(ex) = exemplar {
            if !(name.ends_with("_bucket") && histograms.contains(base)) {
                return Err(format!(
                    "line {line_no}: exemplar on non-bucket sample {name}"
                ));
            }
            let ex = ex.trim();
            let body = ex
                .strip_prefix('{')
                .ok_or_else(|| format!("line {line_no}: exemplar must start with a label set"))?;
            let close = body
                .find('}')
                .ok_or_else(|| format!("line {line_no}: unterminated exemplar label set"))?;
            if parse_labels(&body[..close], line_no)?.is_empty() {
                return Err(format!("line {line_no}: exemplar label set is empty"));
            }
            let ex_value = body[close + 1..].trim();
            if ex_value.split_whitespace().count() != 1 {
                return Err(format!(
                    "line {line_no}: exemplar must carry exactly one value \
                     (exemplar timestamps are not emitted here)"
                ));
            }
            parse_value(ex_value, line_no)?;
        }

        let series_key = format!("{name}{{{}}}", {
            let parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
            parts.join(",")
        });
        if !seen_series.insert(series_key.clone()) {
            return Err(format!("line {line_no}: duplicate series {series_key}"));
        }

        if histograms.contains(base) {
            let non_le: Vec<String> = labels
                .iter()
                .filter(|(k, _)| k != "le")
                .map(|(k, v)| format!("{k}={v:?}"))
                .collect();
            let series = hist_series
                .entry((base.to_string(), non_le.join(",")))
                .or_default();
            if name.ends_with("_bucket") {
                let le = labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .ok_or_else(|| format!("line {line_no}: _bucket without le label"))?;
                series.buckets.push((parse_value(&le.1, line_no)?, value));
            } else if name.ends_with("_sum") {
                series.sum = Some(value);
            } else if name.ends_with("_count") {
                series.count = Some(value);
            } else {
                return Err(format!(
                    "line {line_no}: bare sample {name} for histogram {base}"
                ));
            }
        }
    }

    for ((family, labels), series) in &hist_series {
        let what = if labels.is_empty() {
            family.clone()
        } else {
            format!("{family}{{{labels}}}")
        };
        let count = series
            .count
            .ok_or_else(|| format!("histogram {what}: missing _count"))?;
        series
            .sum
            .ok_or_else(|| format!("histogram {what}: missing _sum"))?;
        if series.buckets.is_empty() {
            return Err(format!("histogram {what}: no _bucket samples"));
        }
        let mut prev_le = f64::NEG_INFINITY;
        let mut prev_n = 0.0f64;
        for &(le, n) in &series.buckets {
            if le <= prev_le {
                return Err(format!("histogram {what}: le buckets out of order"));
            }
            if n < prev_n {
                return Err(format!(
                    "histogram {what}: bucket counts not monotone at le={le}"
                ));
            }
            prev_le = le;
            prev_n = n;
        }
        let &(last_le, last_n) = series.buckets.last().expect("non-empty checked above");
        if last_le != f64::INFINITY {
            return Err(format!("histogram {what}: missing +Inf bucket"));
        }
        if last_n != count {
            return Err(format!(
                "histogram {what}: +Inf bucket {last_n} != _count {count}"
            ));
        }
    }

    Ok(PromStats {
        families: typed.len(),
        samples,
        histograms: histograms.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(text: &str) -> PromStats {
        validate_prometheus(text).expect("exposition must validate")
    }

    fn err(text: &str) -> String {
        validate_prometheus(text).expect_err("exposition must be rejected")
    }

    #[test]
    fn accepts_counters_gauges_and_histograms() {
        let text = "\
# HELP demo_total Things.\n\
# TYPE demo_total counter\n\
demo_total{kind=\"a\"} 3\n\
demo_total{kind=\"b\"} 0\n\
# HELP demo_gauge A gauge.\n\
# TYPE demo_gauge gauge\n\
demo_gauge 1.5\n\
# HELP demo_seconds Latency.\n\
# TYPE demo_seconds histogram\n\
demo_seconds_bucket{le=\"0.1\"} 1\n\
demo_seconds_bucket{le=\"1\"} 2\n\
demo_seconds_bucket{le=\"+Inf\"} 2\n\
demo_seconds_sum 0.7\n\
demo_seconds_count 2\n";
        let stats = ok(text);
        assert_eq!(stats.families, 3);
        assert_eq!(stats.histograms, 1);
        assert_eq!(stats.samples, 8);
    }

    #[test]
    fn rejects_sample_before_help_and_type() {
        assert!(err("loose_metric 1\n").contains("without prior HELP+TYPE"));
        let text = "# HELP m X.\nm 1\n";
        assert!(
            err(text).contains("without prior HELP+TYPE"),
            "HELP alone is not enough"
        );
    }

    #[test]
    fn rejects_malformed_names_values_and_escapes() {
        assert!(err("# HELP 9bad X.\n").contains("bad metric name"));
        let bad_value = "# HELP m X.\n# TYPE m gauge\nm pizza\n";
        assert!(err(bad_value).contains("bad sample value"));
        let bad_escape = "# HELP m X.\n# TYPE m counter\nm{l=\"a\\t\"} 1\n";
        assert!(err(bad_escape).contains("illegal escape"));
        let legal_escape = "# HELP m X.\n# TYPE m counter\nm{l=\"a\\n\\\"b\\\\\"} 1\n";
        ok(legal_escape);
    }

    #[test]
    fn rejects_duplicate_series() {
        let text = "# HELP m X.\n# TYPE m counter\nm{a=\"1\"} 1\nm{a=\"1\"} 2\n";
        assert!(err(text).contains("duplicate series"));
    }

    #[test]
    fn rejects_broken_histograms() {
        // Non-monotone buckets.
        let text = "\
# HELP h H.\n# TYPE h histogram\n\
h_bucket{le=\"0.1\"} 5\nh_bucket{le=\"1\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n";
        assert!(err(text).contains("not monotone"));
        // +Inf bucket disagrees with _count.
        let text = "\
# HELP h H.\n# TYPE h histogram\n\
h_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n";
        assert!(err(text).contains("!= _count"));
        // Missing +Inf.
        let text = "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_sum 1\nh_count 2\n";
        assert!(err(text).contains("missing +Inf"));
        // Missing _sum.
        let text = "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_count 2\n";
        assert!(err(text).contains("missing _sum"));
    }

    #[test]
    fn validates_bucket_exemplars() {
        let good = "\
# HELP h H.\n# TYPE h histogram\n\
h_bucket{le=\"0.1\"} 1 # {trace_id=\"0af765\"} 0.03\n\
h_bucket{le=\"+Inf\"} 1\nh_sum 0.03\nh_count 1\n";
        ok(good);
        let on_counter = "# HELP m X.\n# TYPE m counter\nm 1 # {trace_id=\"a\"} 1\n";
        assert!(err(on_counter).contains("non-bucket"));
        let with_ts = "\
# HELP h H.\n# TYPE h histogram\n\
h_bucket{le=\"+Inf\"} 1 # {trace_id=\"a\"} 0.03 1700000000\nh_sum 0.03\nh_count 1\n";
        assert!(err(with_ts).contains("exactly one value"));
        let empty_labels = "\
# HELP h H.\n# TYPE h histogram\n\
h_bucket{le=\"+Inf\"} 1 # {} 0.03\nh_sum 0.03\nh_count 1\n";
        assert!(err(empty_labels).contains("label set is empty"));
        let bad_labels = "\
# HELP h H.\n# TYPE h histogram\n\
h_bucket{le=\"+Inf\"} 1 # {trace_id=unquoted} 0.03\nh_sum 0.03\nh_count 1\n";
        assert!(err(bad_labels).contains("must be quoted"));
    }

    #[test]
    fn live_render_passes_validation() {
        use crate::metrics::Metrics;
        use cesim_core::service::ServiceState;
        use std::time::Duration;
        let m = Metrics::new();
        m.set_workers(2);
        let state = ServiceState::new(2, 2);
        m.observe("/v1/simulate", 200, Duration::from_millis(3), None);
        m.observe("/metrics", 200, Duration::from_micros(90), None);
        m.observe(
            "/v1/sweep",
            200,
            Duration::from_millis(40),
            Some("0af7651916cd43dd8448eb211c80319c"),
        );
        m.shed();
        let text = m.render(&state);
        assert!(
            text.contains("# {trace_id="),
            "exemplar must render: {text}"
        );
        let stats = ok(&text);
        assert!(
            stats.families >= 10,
            "expected a rich exposition, got {stats:?}"
        );
        assert!(stats.histograms >= 1);
    }
}
