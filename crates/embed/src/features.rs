//! Per-value feature extraction feeding the CoLR networks.
//!
//! The paper's CoLR models consume raw values; here each value is first
//! mapped to a fixed [`FEATURE_DIM`]-dimensional feature vector chosen so
//! that, after mean-pooling over a column sample, the features expose the
//! properties the paper says embeddings must capture: value overlap
//! (n-gram hashes), similar distributions (magnitude/mantissa sketches),
//! and "measuring the same variable even with different distributions" —
//! a rescaled column keeps its leading-digit and fractional structure even
//! when its magnitude shifts.

use crate::types::FineGrainedType;

/// Input feature dimensionality for every CoLR network.
pub const FEATURE_DIM: usize = 96;

const NGRAM_BUCKETS: usize = 48;

/// Extract features for a single value of the given fine-grained type.
pub fn extract(fgt: FineGrainedType, value: &str) -> [f32; FEATURE_DIM] {
    let mut out = [0.0f32; FEATURE_DIM];
    match fgt {
        FineGrainedType::Int | FineGrainedType::Float => {
            numeric_features(value, &mut out);
        }
        FineGrainedType::Date => {
            date_features(value, &mut out);
        }
        FineGrainedType::Boolean => {
            // booleans are compared via true-ratio, but the extractor stays
            // total so the profiler can embed anything uniformly
            let truthy = matches!(
                value.trim().to_ascii_lowercase().as_str(),
                "true" | "1" | "yes" | "t" | "y"
            );
            out[0] = if truthy { 1.0 } else { -1.0 };
        }
        FineGrainedType::NamedEntity | FineGrainedType::NaturalLanguage | FineGrainedType::String => {
            string_features(value, &mut out);
        }
    }
    out
}

/// Numeric layout:
/// `[0..9]`   leading-digit one-hot (Benford-style sketch, scale-robust)
/// `[9..22]`  log10-magnitude soft one-hot over buckets −6..+6
/// `[22]`     sign, `[23]` is-integer, `[24]` fractional part,
/// `[25]`     mantissa (normalised to `[0,1)`), `[26]` digit count / 20
/// `[27]`     is-zero
fn numeric_features(value: &str, out: &mut [f32; FEATURE_DIM]) {
    let Ok(v) = value.trim().parse::<f64>() else {
        out[28] = 1.0; // unparseable marker
        return;
    };
    if v == 0.0 {
        out[27] = 1.0;
        return;
    }
    let a = v.abs();
    // leading digit
    let mantissa = a / 10f64.powf(a.log10().floor());
    let lead = (mantissa.floor() as usize).clamp(1, 9);
    out[lead - 1] = 1.0;
    // magnitude buckets
    let mag = a.log10().clamp(-6.0, 6.0);
    let bucket = mag + 6.0; // 0..12
    let lo = bucket.floor() as usize;
    let frac = (bucket - lo as f32 as f64) as f32;
    out[9 + lo.min(12)] += 1.0 - frac;
    if lo < 12 {
        out[9 + lo + 1] += frac;
    }
    out[22] = if v < 0.0 { -1.0 } else { 1.0 };
    out[23] = if v == v.trunc() { 1.0 } else { 0.0 };
    out[24] = (a.fract()) as f32;
    out[25] = ((mantissa - 1.0) / 9.0) as f32;
    out[26] = (value.trim().len() as f32 / 20.0).min(1.0);
}

/// String layout:
/// `[0..48]`   hashed character-3-gram counts (L2-normalised)
/// `[48..58]`  length soft bucket (log scale)
/// `[58]`      digit ratio, `[59]` upper ratio, `[60]` space ratio,
/// `[61]`      punctuation ratio, `[62]` token count / 16, `[63]` alpha ratio
fn string_features(value: &str, out: &mut [f32; FEATURE_DIM]) {
    let v = value.trim();
    let lower = v.to_lowercase();
    let bytes = lower.as_bytes();
    if bytes.len() >= 3 {
        for w in bytes.windows(3) {
            let h = fxhash(w) as usize % NGRAM_BUCKETS;
            out[h] += 1.0;
        }
    } else if !bytes.is_empty() {
        let h = fxhash(bytes) as usize % NGRAM_BUCKETS;
        out[h] += 1.0;
    }
    // L2-normalise the n-gram block so long values don't dominate the mean
    let norm: f32 = out[..NGRAM_BUCKETS].iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in &mut out[..NGRAM_BUCKETS] {
            *x /= norm;
        }
    }
    let len = v.chars().count();
    let lb = ((len.max(1) as f32).ln() * 2.0).min(9.0);
    let lo = lb.floor() as usize;
    out[48 + lo.min(9)] += 1.0 - (lb - lo as f32);
    if lo < 9 {
        out[48 + lo + 1] += lb - lo as f32;
    }
    if len > 0 {
        let chars: Vec<char> = v.chars().collect();
        let n = chars.len() as f32;
        out[58] = chars.iter().filter(|c| c.is_ascii_digit()).count() as f32 / n;
        out[59] = chars.iter().filter(|c| c.is_uppercase()).count() as f32 / n;
        out[60] = chars.iter().filter(|c| c.is_whitespace()).count() as f32 / n;
        out[61] = chars.iter().filter(|c| c.is_ascii_punctuation()).count() as f32 / n;
        out[62] = (v.split_whitespace().count() as f32 / 16.0).min(1.0);
        out[63] = chars.iter().filter(|c| c.is_alphabetic()).count() as f32 / n;
    }
}

/// Date layout: `[0..12]` month one-hot, `[12..19]` decade bucket (1950s..
/// 2020s), `[19]` day-of-month / 31, `[20]` has-time flag, `[21]` parse-ok.
fn date_features(value: &str, out: &mut [f32; FEATURE_DIM]) {
    if let Some((year, month, day, has_time)) = parse_date_parts(value) {
        out[21] = 1.0;
        if (1..=12).contains(&month) {
            out[(month - 1) as usize] = 1.0;
        }
        let decade = ((year as i64 - 1950) / 10).clamp(0, 6) as usize;
        out[12 + decade] = 1.0;
        out[19] = day as f32 / 31.0;
        out[20] = if has_time { 1.0 } else { 0.0 };
    } else {
        // fall back to string features shifted into the tail region
        let mut s = [0.0f32; FEATURE_DIM];
        string_features(value, &mut s);
        out[22..FEATURE_DIM]
            .iter_mut()
            .zip(&s[..FEATURE_DIM - 22])
            .for_each(|(o, x)| *o = *x);
    }
}

/// Parse `(year, month, day, has_time)` from common date shapes:
/// `YYYY-MM-DD`, `YYYY/MM/DD`, `DD-MM-YYYY`, `MM/DD/YYYY`, optionally
/// followed by a time component.
pub fn parse_date_parts(value: &str) -> Option<(i32, u32, u32, bool)> {
    let v = value.trim();
    let (date_part, has_time) = match v.split_once([' ', 'T']) {
        Some((d, t)) if t.contains(':') => (d, true),
        _ => (v, false),
    };
    let sep = if date_part.contains('-') {
        '-'
    } else if date_part.contains('/') {
        '/'
    } else {
        return None;
    };
    let mut split = date_part.split(sep);
    let (Some(a), Some(b), Some(c), None) = (split.next(), split.next(), split.next(), split.next())
    else {
        return None;
    };
    let [p, q, r] = [a.parse::<i64>().ok()?, b.parse::<i64>().ok()?, c.parse::<i64>().ok()?];
    let (y, m, d) = if a.len() == 4 {
        (p, q, r)
    } else if c.len() == 4 {
        // ambiguous DD-MM vs MM-DD: treat first>12 as day
        if p > 12 {
            (r, q, p)
        } else {
            (r, p, q)
        }
    } else {
        return None;
    };
    if !(1..=9999).contains(&y) || !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    Some((y as i32, m as u32, d as u32, has_time))
}

/// FxHash-style mixing (fast, deterministic, no dependencies).
pub fn fxhash(bytes: &[u8]) -> u64 {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let mut h: u64 = 0;
    for &b in bytes {
        h = (h.rotate_left(5) ^ b as u64).wrapping_mul(SEED);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn numeric_scale_preserves_leading_digit() {
        let a = extract(FineGrainedType::Float, "345.0");
        let b = extract(FineGrainedType::Float, "3450.0");
        // leading digit block identical
        assert_eq!(&a[..9], &b[..9]);
        // magnitude block differs
        assert_ne!(&a[9..22], &b[9..22]);
    }

    #[test]
    fn numeric_edge_cases() {
        let zero = extract(FineGrainedType::Int, "0");
        assert_eq!(zero[27], 1.0);
        let bad = extract(FineGrainedType::Float, "not-a-number");
        assert_eq!(bad[28], 1.0);
        let neg = extract(FineGrainedType::Float, "-2.5");
        assert_eq!(neg[22], -1.0);
    }

    #[test]
    fn string_similar_values_have_close_features() {
        let a = extract(FineGrainedType::String, "chicago");
        let b = extract(FineGrainedType::String, "chicago");
        assert_eq!(a, b);
        let c = extract(FineGrainedType::String, "zx9-qq-14");
        let sim_ab: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let sim_ac: f32 = a.iter().zip(&c).map(|(x, y)| x * y).sum();
        assert!(sim_ab > sim_ac);
    }

    #[test]
    fn date_parsing_shapes() {
        assert_eq!(parse_date_parts("2021-03-15"), Some((2021, 3, 15, false)));
        assert_eq!(parse_date_parts("2021/03/15 10:30:00"), Some((2021, 3, 15, true)));
        assert_eq!(parse_date_parts("15-03-2021"), Some((2021, 3, 15, false)));
        assert_eq!(parse_date_parts("03/15/2021"), Some((2021, 3, 15, false)));
        assert_eq!(parse_date_parts("2021-13-01"), None);
        assert_eq!(parse_date_parts("hello"), None);
        assert_eq!(parse_date_parts("1-2"), None);
    }

    #[test]
    fn date_features_set_parse_flag() {
        let ok = extract(FineGrainedType::Date, "1999-12-31");
        assert_eq!(ok[21], 1.0);
        assert_eq!(ok[11], 1.0); // December
        let bad = extract(FineGrainedType::Date, "whenever");
        assert_eq!(bad[21], 0.0);
    }

    #[test]
    fn boolean_marker() {
        assert_eq!(extract(FineGrainedType::Boolean, "true")[0], 1.0);
        assert_eq!(extract(FineGrainedType::Boolean, "NO")[0], -1.0);
    }

    proptest! {
        #[test]
        fn prop_features_are_finite(s in "\\PC{0,30}") {
            for fgt in FineGrainedType::ALL {
                let f = extract(fgt, &s);
                prop_assert!(f.iter().all(|x| x.is_finite()), "{fgt:?} {s:?}");
            }
        }

        #[test]
        fn prop_numeric_deterministic(v in -1.0e9f64..1.0e9) {
            let s = v.to_string();
            let a = extract(FineGrainedType::Float, &s);
            let b = extract(FineGrainedType::Float, &s);
            prop_assert_eq!(a, b);
        }
    }
}
