//! Minimal JSON representation + stable report schema.
//!
//! The build environment is offline (no serde), so reports carry their own
//! hand-rolled JSON value type with a compact writer and a
//! recursive-descent parser. The schema is versioned
//! ([`SCHEMA_VERSION`]) and round-trips: `RunReport::from_json`
//! reconstructs everything `RunReport::to_json` emits, including the
//! per-stage latency histograms.
//!
//! Numbers are `f64`; all integer counters in the reports stay below 2^53,
//! so the round-trip is exact.

use dewrite_mem::{LatencyHistogram, LatencyStats};
use dewrite_nvm::EnergyBreakdown;

use crate::metrics::RunReport;
use crate::schemes::{BaseMetrics, DeWriteCacheStats, DeWriteMetrics};
use crate::trace::{Stage, StageBreakdown};

/// Version stamped into every report object as `schema_version`.
pub const SCHEMA_VERSION: u64 = 1;

/// A JSON value. Object keys keep insertion order so emitted documents are
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (integers below 2^53 are exact).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member of an object by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an unsigned integer (rejects negatives and fractions).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9.007_199_254_740_992e15 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parse one JSON document (trailing garbage is an error).
    ///
    /// # Errors
    ///
    /// Returns a description with the byte offset of the first syntax
    /// error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at offset {pos}"));
        }
        Ok(value)
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if !n.is_finite() {
                    // JSON has no NaN/Inf; reports never produce them, but
                    // fail safe rather than emit an unparseable token.
                    f.write_str("null")
                } else if n.fract() == 0.0 && n.abs() <= 9.007_199_254_740_992e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut std::fmt::Formatter<'_>, s: &str) -> std::fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(token.as_bytes()) {
        *pos += token.len();
        Ok(())
    } else {
        Err(format!("expected `{token}` at offset {pos}", pos = *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at offset {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(bytes, pos)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(format!("expected `,` or `}}` at offset {pos}", pos = *pos)),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!(
            "unexpected byte {c:#x} at offset {pos}",
            pos = *pos
        )),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at offset {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at offset {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a valid &str).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while bytes
        .get(*pos)
        .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .map_err(|e| e.to_string())?
        .parse::<f64>()
        .map(Json::Num)
        .map_err(|e| format!("bad number at offset {start}: {e}"))
}

fn num(n: u64) -> Json {
    Json::Num(n as f64)
}

fn field<T>(j: &Json, key: &str, read: impl Fn(&Json) -> Option<T>) -> Result<T, String> {
    j.get(key)
        .and_then(read)
        .ok_or_else(|| format!("missing or mistyped field `{key}`"))
}

fn req<'a>(j: &'a Json, key: &str) -> Result<&'a Json, String> {
    j.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn u64_field(j: &Json, key: &str) -> Result<u64, String> {
    field(j, key, Json::as_u64)
}

fn f64_field(j: &Json, key: &str) -> Result<f64, String> {
    field(j, key, Json::as_f64)
}

/// A `u64` field that defaults to zero when absent — for counters added
/// after schema version 1 shipped, so older exports still parse.
fn u64_field_or_zero(j: &Json, key: &str) -> Result<u64, String> {
    match j.get(key) {
        None => Ok(0),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("field `{key}` is not a u64")),
    }
}

fn lat_to_json(s: &LatencyStats) -> Json {
    Json::Obj(vec![
        ("count".into(), num(s.count())),
        ("total_ns".into(), num(s.total_ns())),
        ("min_ns".into(), num(s.min_ns())),
        ("max_ns".into(), num(s.max_ns())),
        ("mean_ns".into(), Json::Num(s.mean_ns())),
    ])
}

fn lat_from_json(j: &Json) -> Result<LatencyStats, String> {
    Ok(LatencyStats::from_parts(
        u64_field(j, "count")?,
        u64_field(j, "total_ns")?,
        u64_field(j, "min_ns")?,
        u64_field(j, "max_ns")?,
    ))
}

fn hist_to_json(h: &LatencyHistogram) -> Json {
    let Json::Obj(mut pairs) = lat_to_json(&h.stats()) else {
        unreachable!("lat_to_json returns an object");
    };
    pairs.push(("p50_ns".into(), num(h.p50_ns())));
    pairs.push(("p95_ns".into(), num(h.p95_ns())));
    pairs.push(("p99_ns".into(), num(h.p99_ns())));
    pairs.push((
        "buckets".into(),
        Json::Arr(
            h.bucket_counts()
                .map(|(b, c)| Json::Arr(vec![num(u64::from(b)), num(c)]))
                .collect(),
        ),
    ));
    Json::Obj(pairs)
}

fn hist_from_json(j: &Json) -> Result<LatencyHistogram, String> {
    let stats = lat_from_json(j)?;
    let buckets = req(j, "buckets")?
        .as_arr()
        .ok_or("field `buckets` is not an array")?;
    let buckets: Vec<(u16, u64)> = buckets
        .iter()
        .map(|pair| {
            let pair = pair
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or("bad bucket pair")?;
            let bucket = pair[0].as_u64().ok_or("bad bucket index")?;
            let bucket = u16::try_from(bucket).map_err(|e| e.to_string())?;
            let count = pair[1].as_u64().ok_or("bad bucket count")?;
            Ok((bucket, count))
        })
        .collect::<Result<_, String>>()?;
    LatencyHistogram::from_parts(stats, buckets)
}

/// A latency stream written twice, as the summary `key` and the histogram
/// `key_hist`: read from the histogram, refused when the two disagree.
fn latency_from_json(j: &Json, key: &str) -> Result<LatencyHistogram, String> {
    let hist_key = format!("{key}_hist");
    let hist = hist_from_json(req(j, &hist_key)?)?;
    if lat_from_json(req(j, key)?)? != hist.stats() {
        return Err(format!("`{key}` disagrees with `{hist_key}`"));
    }
    Ok(hist)
}

fn stages_to_json(b: &StageBreakdown) -> Json {
    Json::Obj(
        Stage::ALL
            .into_iter()
            .map(|s| (s.name().to_string(), hist_to_json(b.stage(s))))
            .collect(),
    )
}

fn breakdown_from_json(paths: &Json, stages: &Json) -> Result<StageBreakdown, String> {
    let mut b = StageBreakdown::default();
    b.duplicate_writes = u64_field(paths, "duplicate_writes")?;
    b.stored_writes = u64_field(paths, "stored_writes")?;
    b.predicted_dup = u64_field(paths, "predicted_dup")?;
    b.pna_skips = u64_field(paths, "pna_skips")?;
    for stage in Stage::ALL {
        let hist = stages
            .get(stage.name())
            .ok_or_else(|| format!("missing stage `{}`", stage.name()))?;
        *b.stage_mut(stage) = hist_from_json(hist)?;
    }
    Ok(b)
}

fn base_to_json(b: &BaseMetrics) -> Json {
    Json::Obj(vec![
        ("writes".into(), num(b.writes)),
        ("writes_eliminated".into(), num(b.writes_eliminated)),
        ("coalesced_writes".into(), num(b.coalesced_writes)),
        ("reads".into(), num(b.reads)),
        ("aes_line_ops".into(), num(b.aes_line_ops)),
        ("hash_ops".into(), num(b.hash_ops)),
        ("verify_reads".into(), num(b.verify_reads)),
        ("meta_nvm_reads".into(), num(b.meta_nvm_reads)),
        ("meta_nvm_writes".into(), num(b.meta_nvm_writes)),
    ])
}

fn base_from_json(j: &Json) -> Result<BaseMetrics, String> {
    Ok(BaseMetrics {
        writes: u64_field(j, "writes")?,
        writes_eliminated: u64_field(j, "writes_eliminated")?,
        coalesced_writes: u64_field_or_zero(j, "coalesced_writes")?,
        reads: u64_field(j, "reads")?,
        aes_line_ops: u64_field(j, "aes_line_ops")?,
        hash_ops: u64_field(j, "hash_ops")?,
        verify_reads: u64_field(j, "verify_reads")?,
        meta_nvm_reads: u64_field(j, "meta_nvm_reads")?,
        meta_nvm_writes: u64_field(j, "meta_nvm_writes")?,
    })
}

fn energy_to_json(e: &EnergyBreakdown) -> Json {
    Json::Obj(vec![
        ("nvm_read_pj".into(), num(e.nvm_read_pj)),
        ("nvm_write_pj".into(), num(e.nvm_write_pj)),
        ("aes_pj".into(), num(e.aes_pj)),
        ("dedup_pj".into(), num(e.dedup_pj)),
    ])
}

fn energy_from_json(j: &Json) -> Result<EnergyBreakdown, String> {
    Ok(EnergyBreakdown {
        nvm_read_pj: u64_field(j, "nvm_read_pj")?,
        nvm_write_pj: u64_field(j, "nvm_write_pj")?,
        aes_pj: u64_field(j, "aes_pj")?,
        dedup_pj: u64_field(j, "dedup_pj")?,
    })
}

impl DeWriteMetrics {
    /// Serialize to the stable report schema.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("dup_eliminated".into(), num(self.dup_eliminated)),
            ("pna_skips".into(), num(self.pna_skips)),
            ("pna_missed_dups".into(), num(self.pna_missed_dups)),
            ("saturated_skips".into(), num(self.saturated_skips)),
            ("false_matches".into(), num(self.false_matches)),
            ("assumed_dups".into(), num(self.assumed_dups)),
            ("parallel_writes".into(), num(self.parallel_writes)),
            ("direct_writes".into(), num(self.direct_writes)),
            ("wasted_encryptions".into(), num(self.wasted_encryptions)),
            ("saved_encryptions".into(), num(self.saved_encryptions)),
            (
                "predictor_accuracy".into(),
                Json::Num(self.predictor_accuracy),
            ),
        ])
    }

    /// Deserialize from the stable report schema.
    ///
    /// # Errors
    ///
    /// Returns which field is missing or mistyped.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        Ok(DeWriteMetrics {
            dup_eliminated: u64_field(j, "dup_eliminated")?,
            pna_skips: u64_field(j, "pna_skips")?,
            pna_missed_dups: u64_field(j, "pna_missed_dups")?,
            saturated_skips: u64_field(j, "saturated_skips")?,
            false_matches: u64_field(j, "false_matches")?,
            // Absent from reports written before the digest-mode axis
            // existed; default to the only value they could have had.
            assumed_dups: u64_field(j, "assumed_dups").unwrap_or(0),
            parallel_writes: u64_field(j, "parallel_writes")?,
            direct_writes: u64_field(j, "direct_writes")?,
            wasted_encryptions: u64_field(j, "wasted_encryptions")?,
            saved_encryptions: u64_field(j, "saved_encryptions")?,
            predictor_accuracy: f64_field(j, "predictor_accuracy")?,
        })
    }
}

impl DeWriteCacheStats {
    /// Serialize the four partition statistics.
    pub fn to_json(&self) -> Json {
        let part = |s: &dewrite_mem::CacheStats| {
            Json::Obj(vec![
                ("hits".into(), num(s.hits)),
                ("misses".into(), num(s.misses)),
                ("demand_inserts".into(), num(s.demand_inserts)),
                ("prefetch_inserts".into(), num(s.prefetch_inserts)),
                ("dirty_evictions".into(), num(s.dirty_evictions)),
                ("hit_rate".into(), Json::Num(s.hit_rate())),
            ])
        };
        Json::Obj(vec![
            ("addr_map".into(), part(&self.addr_map)),
            ("inverted".into(), part(&self.inverted)),
            ("hash".into(), part(&self.hash)),
            ("fsm".into(), part(&self.fsm)),
        ])
    }
}

impl RunReport {
    /// Serialize to the stable, versioned report schema.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema_version".into(), num(SCHEMA_VERSION)),
            ("scheme".into(), Json::Str(self.scheme.clone())),
            ("app".into(), Json::Str(self.app.clone())),
            ("instructions".into(), num(self.instructions)),
            ("cycles".into(), Json::Num(self.cycles)),
            ("ipc".into(), Json::Num(self.ipc)),
            (
                "write_latency".into(),
                lat_to_json(&self.write_latency.stats()),
            ),
            (
                "write_latency_eliminated".into(),
                lat_to_json(&self.write_latency_eliminated),
            ),
            (
                "write_latency_stored".into(),
                lat_to_json(&self.write_latency_stored),
            ),
            (
                "read_latency".into(),
                lat_to_json(&self.read_latency.stats()),
            ),
            ("write_critical".into(), lat_to_json(&self.write_critical)),
            (
                "write_latency_hist".into(),
                hist_to_json(&self.write_latency),
            ),
            ("read_latency_hist".into(), hist_to_json(&self.read_latency)),
            ("stages".into(), stages_to_json(&self.stage_breakdown)),
            (
                "write_paths".into(),
                Json::Obj(vec![
                    (
                        "duplicate_writes".into(),
                        num(self.stage_breakdown.duplicate_writes),
                    ),
                    (
                        "stored_writes".into(),
                        num(self.stage_breakdown.stored_writes),
                    ),
                    (
                        "predicted_dup".into(),
                        num(self.stage_breakdown.predicted_dup),
                    ),
                    ("pna_skips".into(), num(self.stage_breakdown.pna_skips)),
                ]),
            ),
            ("base".into(), base_to_json(&self.base)),
            ("energy".into(), energy_to_json(&self.energy)),
            ("nvm_data_writes".into(), num(self.nvm_data_writes)),
            ("bit_flip_ratio".into(), Json::Num(self.bit_flip_ratio)),
            (
                "dewrite".into(),
                match &self.dewrite {
                    Some(m) => m.to_json(),
                    None => Json::Null,
                },
            ),
        ])
    }

    /// Reconstruct a report from its schema. Unknown fields are ignored;
    /// newer schema versions are rejected.
    ///
    /// # Errors
    ///
    /// Returns which field is missing, mistyped, or inconsistent.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let version = u64_field(j, "schema_version")?;
        if version > SCHEMA_VERSION {
            return Err(format!(
                "report schema version {version} is newer than supported {SCHEMA_VERSION}"
            ));
        }
        let dewrite = match j.get("dewrite") {
            None | Some(Json::Null) => None,
            Some(m) => Some(DeWriteMetrics::from_json(m)?),
        };
        Ok(RunReport {
            scheme: field(j, "scheme", |v| v.as_str().map(String::from))?,
            app: field(j, "app", |v| v.as_str().map(String::from))?,
            instructions: u64_field(j, "instructions")?,
            cycles: f64_field(j, "cycles")?,
            ipc: f64_field(j, "ipc")?,
            write_latency: latency_from_json(j, "write_latency")?,
            write_latency_eliminated: lat_from_json(req(j, "write_latency_eliminated")?)?,
            write_latency_stored: lat_from_json(req(j, "write_latency_stored")?)?,
            read_latency: latency_from_json(j, "read_latency")?,
            write_critical: lat_from_json(req(j, "write_critical")?)?,
            stage_breakdown: breakdown_from_json(req(j, "write_paths")?, req(j, "stages")?)?,
            base: base_from_json(req(j, "base")?)?,
            energy: energy_from_json(req(j, "energy")?)?,
            nvm_data_writes: u64_field(j, "nvm_data_writes")?,
            bit_flip_ratio: f64_field(j, "bit_flip_ratio")?,
            dewrite,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_through_text() {
        let doc = Json::Obj(vec![
            ("a".into(), Json::Num(1.5)),
            ("b".into(), Json::Str("x \"quoted\"\nline".into())),
            (
                "c".into(),
                Json::Arr(vec![Json::Null, Json::Bool(true), num(u64::MAX >> 12)]),
            ),
            ("d".into(), Json::Obj(vec![])),
        ]);
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} extra").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn parser_accepts_whitespace_and_nesting() {
        let j = Json::parse(" { \"k\" : [ 1 , -2.5e1 , \"\\u0041\" ] } ").unwrap();
        assert_eq!(j.get("k").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            j.get("k").unwrap().as_arr().unwrap()[1].as_f64(),
            Some(-25.0)
        );
        assert_eq!(j.get("k").unwrap().as_arr().unwrap()[2].as_str(), Some("A"));
    }

    #[test]
    fn integers_emit_without_decimal_point() {
        assert_eq!(num(42).to_string(), "42");
        assert_eq!(Json::Num(0.25).to_string(), "0.25");
    }

    #[test]
    fn histogram_round_trips() {
        let mut h = LatencyHistogram::new();
        for ns in [3, 75, 75, 91, 300, 4_096, 70_000] {
            h.record(ns);
        }
        let j = hist_to_json(&h);
        let back = hist_from_json(&j).unwrap();
        assert_eq!(back, h);
        assert_eq!(j.get("p50_ns").unwrap().as_u64(), Some(h.p50_ns()));
    }

    #[test]
    fn histogram_import_validates_counts() {
        let mut h = LatencyHistogram::new();
        h.record(10);
        let Json::Obj(mut pairs) = hist_to_json(&h) else {
            unreachable!()
        };
        for (k, v) in &mut pairs {
            if k == "buckets" {
                *v = Json::Arr(vec![]);
            }
        }
        assert!(hist_from_json(&Json::Obj(pairs)).is_err());
    }

    #[test]
    fn histogram_import_rejects_buckets_past_the_last() {
        let mut h = LatencyHistogram::new();
        h.record(10);
        let Json::Obj(mut pairs) = hist_to_json(&h) else {
            unreachable!()
        };
        for (k, v) in &mut pairs {
            if k == "buckets" {
                *v = Json::Arr(vec![Json::Arr(vec![num(60_000), num(1)])]);
            }
        }
        let err = hist_from_json(&Json::Obj(pairs)).unwrap_err();
        assert!(err.contains("past the last bucket"), "{err}");
    }

    /// The sparse histogram the JSON form was defined against: an ordered
    /// bucket map beside the summary, with its own copies of the bucketing
    /// functions.
    #[derive(Default, PartialEq)]
    struct SparseModel {
        stats: LatencyStats,
        buckets: std::collections::BTreeMap<u16, u64>,
    }

    impl SparseModel {
        fn bucket_of(ns: u64) -> u16 {
            if ns < 16 {
                ns as u16
            } else {
                let major = 63 - ns.leading_zeros() as u16;
                (major - 3) * 16 + ((ns >> (major - 4)) & 15) as u16
            }
        }

        fn lower_bound(bucket: u16) -> u64 {
            if bucket < 16 {
                u64::from(bucket)
            } else {
                (16 + u64::from(bucket) % 16) << (u32::from(bucket) / 16 - 1)
            }
        }

        fn record(&mut self, ns: u64) {
            self.stats.record(ns);
            *self.buckets.entry(Self::bucket_of(ns)).or_insert(0) += 1;
        }

        fn merge(&mut self, other: &SparseModel) {
            self.stats.merge(&other.stats);
            for (&bucket, &n) in &other.buckets {
                *self.buckets.entry(bucket).or_insert(0) += n;
            }
        }

        fn percentile(&self, p: f64) -> u64 {
            let count = self.stats.count();
            if count == 0 {
                return 0;
            }
            let rank = ((p / 100.0 * count as f64).ceil() as u64).max(1);
            if rank >= count {
                return self.stats.max_ns();
            }
            let mut seen = 0;
            for (&bucket, &n) in &self.buckets {
                seen += n;
                if seen >= rank {
                    return Self::lower_bound(bucket)
                        .max(self.stats.min_ns())
                        .min(self.stats.max_ns());
                }
            }
            self.stats.max_ns()
        }

        fn to_json(&self) -> Json {
            let Json::Obj(mut pairs) = lat_to_json(&self.stats) else {
                unreachable!()
            };
            for (name, p) in [("p50_ns", 50.0), ("p95_ns", 95.0), ("p99_ns", 99.0)] {
                pairs.push((name.into(), num(self.percentile(p))));
            }
            let buckets = self.buckets.iter();
            pairs.push((
                "buckets".into(),
                Json::Arr(
                    buckets
                        .map(|(&b, &c)| Json::Arr(vec![num(u64::from(b)), num(c)]))
                        .collect(),
                ),
            ));
            Json::Obj(pairs)
        }
    }

    /// One step of a histogram script over two histograms.
    #[derive(Debug, Clone)]
    enum HistOp {
        Record(usize, u64),
        /// Merge the other histogram into this one.
        Merge(usize),
        /// Rebuild this one from its own parts, padded with zero counts.
        Reimport(usize),
    }

    fn hist_op_strategy() -> impl proptest::strategy::Strategy<Value = HistOp> {
        use proptest::prelude::*;
        let ns = || prop_oneof![0u64..40, 0u64..100_000, (0u32..40).prop_map(|s| 1u64 << s)];
        prop_oneof![
            (0usize..2, ns()).prop_map(|(h, ns)| HistOp::Record(h, ns)),
            (0usize..2, ns()).prop_map(|(h, ns)| HistOp::Record(h, ns)),
            (0usize..2).prop_map(HistOp::Merge),
            (0usize..2).prop_map(HistOp::Reimport),
        ]
    }

    proptest::proptest! {
        #[test]
        fn dense_histogram_matches_sparse_model(
            ops in proptest::collection::vec(hist_op_strategy(), 0..24)
        ) {
            let mut dense = [LatencyHistogram::new(), LatencyHistogram::new()];
            let mut model = [SparseModel::default(), SparseModel::default()];
            for op in ops {
                match op {
                    HistOp::Record(h, ns) => {
                        dense[h].record(ns);
                        model[h].record(ns);
                    }
                    HistOp::Merge(h) => {
                        let other = dense[1 - h].clone();
                        dense[h].merge(&other);
                        let other = std::mem::take(&mut model[1 - h]);
                        model[h].merge(&other);
                        model[1 - h] = other;
                    }
                    HistOp::Reimport(h) => {
                        let padded: Vec<_> = dense[h]
                            .bucket_counts()
                            .flat_map(|(b, n)| [(b, n), (b + 1, 0)])
                            .collect();
                        dense[h] = LatencyHistogram::from_parts(dense[h].stats(), padded).unwrap();
                    }
                }
                for (d, m) in dense.iter().zip(&model) {
                    let sparse: Vec<_> = m.buckets.iter().map(|(&b, &n)| (b, n)).collect();
                    proptest::prop_assert_eq!(d.bucket_counts().collect::<Vec<_>>(), sparse);
                    for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
                        proptest::prop_assert_eq!(d.percentile_ns(p), m.percentile(p));
                    }
                    proptest::prop_assert_eq!(
                        hist_to_json(d).to_string(),
                        m.to_json().to_string()
                    );
                }
                proptest::prop_assert_eq!(dense[0] == dense[1], model[0] == model[1]);
            }
        }
    }

    #[test]
    fn empty_report_round_trips() {
        let r = RunReport::default();
        let back = RunReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn latency_summary_must_match_its_histogram() {
        let mut r = RunReport::default();
        for ns in [93, 93, 480] {
            r.write_latency.record(ns);
        }
        r.read_latency.record(76);
        let doc = r.to_json();
        assert_eq!(RunReport::from_json(&doc).unwrap(), r);
        for (key, field) in [
            ("write_latency", "count"),
            ("write_latency", "max_ns"),
            ("read_latency", "total_ns"),
        ] {
            let mut bad = doc.clone();
            let Json::Obj(pairs) = &mut bad else {
                unreachable!()
            };
            let (_, summary) = pairs.iter_mut().find(|(k, _)| k == key).unwrap();
            let Json::Obj(summary) = summary else {
                unreachable!()
            };
            let (_, v) = summary.iter_mut().find(|(k, _)| k == field).unwrap();
            *v = num(v.as_u64().unwrap() + 1);
            let err = RunReport::from_json(&bad).unwrap_err();
            assert_eq!(err, format!("`{key}` disagrees with `{key}_hist`"));
        }
    }

    #[test]
    fn newer_schema_versions_are_rejected() {
        let mut r = RunReport::default().to_json();
        let Json::Obj(pairs) = &mut r else {
            unreachable!()
        };
        pairs[0].1 = num(SCHEMA_VERSION + 1);
        let err = RunReport::from_json(&r).unwrap_err();
        assert!(err.contains("newer"), "{err}");
    }
}
