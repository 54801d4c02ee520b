//! Human-friendly unit parsing for CLI and config surfaces.
//!
//! Accepts durations like `150ns`, `775us` (or `775µs`), `133ms`,
//! `1.5s`, `720`, `2m`, `1h` — bare numbers are seconds, matching the
//! paper's tables.

use crate::time::Span;

/// Parse a human-friendly duration string into a [`Span`].
///
/// Supported suffixes: `ps`, `ns`, `us`/`µs`, `ms`, `s` (default), `m`
/// (minutes), `h` (hours). Fractions are allowed; whitespace between the
/// number and the unit is tolerated.
pub fn parse_span(input: &str) -> Result<Span, String> {
    let s = input.trim();
    if s.is_empty() {
        return Err("empty duration".into());
    }
    // Split the numeric prefix from the unit suffix.
    let split = s
        .char_indices()
        .find(|(_, c)| !(c.is_ascii_digit() || *c == '.' || *c == '-' || *c == '+'))
        .map(|(i, _)| i)
        .unwrap_or(s.len());
    let (num, unit) = s.split_at(split);
    let value: f64 = num
        .trim()
        .parse()
        .map_err(|_| format!("invalid number '{num}' in duration '{input}'"))?;
    if value < 0.0 || !value.is_finite() {
        return Err(format!(
            "duration '{input}' must be non-negative and finite"
        ));
    }
    let seconds = match unit.trim() {
        "ps" => value * 1e-12,
        "ns" => value * 1e-9,
        "us" | "µs" => value * 1e-6,
        "ms" => value * 1e-3,
        "" | "s" | "sec" | "secs" => value,
        "m" | "min" => value * 60.0,
        "h" | "hr" => value * 3600.0,
        other => return Err(format!("unknown unit '{other}' in duration '{input}'")),
    };
    Ok(Span::from_secs_f64(seconds))
}

/// [`parse_span`] for a duration that must be positive, such as an MTBCE:
/// one that rounds to 0 ps is rejected.
pub fn parse_positive_span(input: &str) -> Result<Span, String> {
    let span = parse_span(input)?;
    if span.is_zero() {
        return Err(format!(
            "duration '{input}' must be positive (at least 1ps)"
        ));
    }
    Ok(span)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values_parse() {
        assert_eq!(parse_span("150ns").unwrap(), Span::from_ns(150));
        assert_eq!(parse_span("775us").unwrap(), Span::from_us(775));
        assert_eq!(parse_span("775µs").unwrap(), Span::from_us(775));
        assert_eq!(parse_span("133ms").unwrap(), Span::from_ms(133));
        assert_eq!(parse_span("720").unwrap(), Span::from_secs(720));
        assert_eq!(parse_span("720s").unwrap(), Span::from_secs(720));
        assert_eq!(parse_span("0.2s").unwrap(), Span::from_ms(200));
    }

    #[test]
    fn positive_spans_reject_what_rounds_to_zero() {
        assert_eq!(parse_positive_span("1ps").unwrap(), Span::from_ps(1));
        for zero in ["0", "0s", "0.0ms", "0.1ps"] {
            let err = parse_positive_span(zero).unwrap_err();
            assert!(err.contains("must be positive"), "{zero}: {err}");
        }
    }

    #[test]
    fn minutes_hours_and_whitespace() {
        assert_eq!(parse_span("2m").unwrap(), Span::from_secs(120));
        assert_eq!(parse_span("1h").unwrap(), Span::from_secs(3600));
        assert_eq!(parse_span(" 5 ms ").unwrap(), Span::from_ms(5));
        assert_eq!(parse_span("1.5 s").unwrap(), Span::from_ms(1500));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_span("").is_err());
        assert!(parse_span("fast").is_err());
        assert!(parse_span("10 parsecs").is_err());
        assert!(parse_span("-5ms").is_err());
        assert!(parse_span("1..5s").is_err());
        assert!(parse_span("inf").is_err());
    }

    #[test]
    fn roundtrips_display_forms() {
        // Display produces e.g. "133.000ms"; that must re-parse.
        for span in [
            Span::from_ns(150),
            Span::from_us(775),
            Span::from_ms(133),
            Span::from_secs(5544),
        ] {
            let text = format!("{span}");
            assert_eq!(parse_span(&text).unwrap(), span, "{text}");
        }
    }
}
