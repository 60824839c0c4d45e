//! Minimal hand-rolled JSON emission: what the endpoint payloads need
//! beyond [`iotscope_obs::json_string`]'s escaped strings, number
//! formatting and array joining.

/// Render an `f64` as a JSON number (`null` for non-finite values,
/// which JSON cannot carry).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        // Rust's float Display never uses exponent notation, so the
        // output is always a valid JSON number.
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Join pre-rendered JSON values into an array.
pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use iotscope_obs::json_string;

    /// The payloads' strings go through the metrics exporter's escaper.
    #[test]
    fn escapes_specials() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
        assert_eq!(json_string("plain"), "\"plain\"");
    }

    #[test]
    fn numbers_are_finite_or_null() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(0.0), "0");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn arrays_join() {
        assert_eq!(array(["1".into(), "2".into()]), "[1,2]");
        assert_eq!(array(Vec::<String>::new()), "[]");
    }
}
