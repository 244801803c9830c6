//! The length-prefixed binary wire protocol.
//!
//! Carries exactly the same [`Request`]/[`Response`] surface as the
//! JSON-lines protocol — and is **bit-identical in results** to it: both
//! protocols ship `f64` payloads as IEEE-754 bit patterns (16 hex digits
//! in JSON, raw little-endian `u64` words here), so a value crosses
//! either wire without any decimal round trip.
//!
//! # Connection opening (version negotiation)
//!
//! The client's first 8 bytes are the hello:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "CFB1"
//! 4       2     min supported version (u16 LE)
//! 6       2     max supported version (u16 LE)
//! ```
//!
//! The server answers with 6 bytes: the magic followed by the chosen
//! version (u16 LE), or `0` when no common version exists — in which
//! case a typed error frame follows and the connection closes. The
//! same first-byte sniff that routes this hello also keeps JSON clients
//! working on the same port: `C` (of `CFB1`) selects binary, `{` or
//! whitespace selects JSON lines, `G` (of `GET `) selects the HTTP
//! metrics answer.
//!
//! # Frames
//!
//! After negotiation, both directions speak frames:
//!
//! ```text
//! offset  size  field
//! 0       4     frame length (u32 LE) = 1 + payload length
//! 4       1     frame type
//! 5       n     payload
//! ```
//!
//! Request frame types are `0x01..=0x08`; response types echo them with
//! the high bit set (`0x81..=0x87`), and `0xFF` is the typed error
//! frame. A request frame longer than [`MAX_FRAME_BYTES`] is rejected
//! *from the length prefix alone* — the server never buffers an
//! oversized frame — with a typed `bad-request`, then the connection
//! closes (the stream can no longer be trusted to be in sync).
//!
//! Within payloads: integers are little-endian; strings are
//! `u32 LE length + UTF-8 bytes`; optional integers are a presence byte
//! followed by the value; `f64`s are their `u64` bit patterns; pattern
//! blocks are bit-packed `u64` words (see [`encode_request`]).

use crate::json::Json;
use crate::proto::{
    ErrorKind, Request, Response, WireBuildOptions, WireEvalParams, WireMacroSummary,
};

/// The 4-byte protocol magic (`C` doubles as the first-byte protocol
/// sniff).
pub const MAGIC: [u8; 4] = *b"CFB1";

/// The one protocol version this build speaks.
pub const VERSION: u16 = 1;

/// Hard cap on a single frame (length prefix + frame body), either
/// direction. Large enough for a 1M-value trace response; small enough
/// that a hostile length prefix cannot balloon memory.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Request frame types.
pub mod req_type {
    /// `load`.
    pub const LOAD: u8 = 0x01;
    /// `eval`.
    pub const EVAL: u8 = 0x02;
    /// `trace`.
    pub const TRACE: u8 = 0x03;
    /// `expected`.
    pub const EXPECTED: u8 = 0x04;
    /// `stats`.
    pub const STATS: u8 = 0x05;
    /// `shutdown`.
    pub const SHUTDOWN: u8 = 0x06;
    /// `metrics`.
    pub const METRICS: u8 = 0x07;
    /// `tracep` (explicit patterns).
    pub const TRACE_DIRECT: u8 = 0x08;
    /// `seqload` (sequential design, per-macro kernels).
    pub const SEQ_LOAD: u8 = 0x09;
    /// `seqeval` (fused cycle-stepped evaluation).
    pub const SEQ_EVAL: u8 = 0x0A;
}

/// Response frame types.
pub mod resp_type {
    /// `load` outcome.
    pub const LOAD: u8 = 0x81;
    /// `eval` outcome.
    pub const EVAL: u8 = 0x82;
    /// `trace` outcome.
    pub const TRACE: u8 = 0x83;
    /// `expected` outcome.
    pub const EXPECTED: u8 = 0x84;
    /// `stats` payload.
    pub const STATS: u8 = 0x85;
    /// `shutdown` acknowledged.
    pub const SHUTDOWN: u8 = 0x86;
    /// `metrics` payload.
    pub const METRICS: u8 = 0x87;
    /// `seqload` outcome.
    pub const SEQ_LOAD: u8 = 0x88;
    /// `seqeval` outcome.
    pub const SEQ_EVAL: u8 = 0x89;
    /// Typed error.
    pub const ERROR: u8 = 0xFF;
}

/// Encodes the client hello.
pub fn encode_hello(min: u16, max: u16) -> [u8; 8] {
    let mut hello = [0u8; 8];
    hello[..4].copy_from_slice(&MAGIC);
    hello[4..6].copy_from_slice(&min.to_le_bytes());
    hello[6..8].copy_from_slice(&max.to_le_bytes());
    hello
}

/// Parses the client hello: `(min, max)` supported versions.
///
/// # Errors
///
/// A diagnostic on bad magic or an inverted version range.
pub fn parse_hello(bytes: &[u8; 8]) -> Result<(u16, u16), String> {
    if bytes[..4] != MAGIC {
        return Err(format!("bad magic {:02x?}", &bytes[..4]));
    }
    let min = u16::from_le_bytes([bytes[4], bytes[5]]);
    let max = u16::from_le_bytes([bytes[6], bytes[7]]);
    if min > max {
        return Err(format!("inverted version range {min}..{max}"));
    }
    Ok((min, max))
}

/// Encodes the server's hello acknowledgement (`chosen == 0` rejects).
pub fn encode_hello_ack(chosen: u16) -> [u8; 6] {
    let mut ack = [0u8; 6];
    ack[..4].copy_from_slice(&MAGIC);
    ack[4..6].copy_from_slice(&chosen.to_le_bytes());
    ack
}

/// Parses the server's hello acknowledgement.
///
/// # Errors
///
/// A diagnostic on bad magic or a rejected negotiation (`chosen == 0`).
pub fn parse_hello_ack(bytes: &[u8; 6]) -> Result<u16, String> {
    if bytes[..4] != MAGIC {
        return Err(format!("bad magic {:02x?}", &bytes[..4]));
    }
    match u16::from_le_bytes([bytes[4], bytes[5]]) {
        0 => Err("server rejected version negotiation".to_owned()),
        v => Ok(v),
    }
}

/// One parsed frame boundary inside a read buffer.
pub struct FrameRef {
    /// Total bytes this frame occupies in the buffer (prefix included).
    pub consumed: usize,
    /// The frame type byte.
    pub ty: u8,
    /// Payload start offset in the buffer.
    pub payload_start: usize,
    /// Payload end offset in the buffer.
    pub payload_end: usize,
}

/// Tries to delimit the next frame in `buf`.
///
/// Returns `Ok(None)` while the frame is still incomplete (read more),
/// `Ok(Some(frame))` once the whole frame is buffered.
///
/// # Errors
///
/// A zero-length or oversized length prefix — detected *before* the
/// body arrives, so a hostile prefix never forces buffering. Framing
/// errors are unrecoverable: the caller must answer with a typed error
/// and close.
pub fn try_frame(buf: &[u8]) -> Result<Option<FrameRef>, String> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len == 0 {
        return Err("zero-length frame (missing type byte)".to_owned());
    }
    if len > MAX_FRAME_BYTES {
        return Err(format!(
            "oversized frame: {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        ));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    Ok(Some(FrameRef {
        consumed: 4 + len,
        ty: buf[4],
        payload_start: 5,
        payload_end: 4 + len,
    }))
}

// ---- payload writer -------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64_bits(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_opt_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            buf.push(1);
            put_u64(buf, v);
        }
        None => buf.push(0),
    }
}

fn put_build_options(buf: &mut Vec<u8>, options: &WireBuildOptions) {
    put_opt_u64(buf, options.max_nodes.map(|n| n as u64));
    buf.push(u8::from(options.upper_bound));
    put_opt_u64(buf, options.node_budget);
    buf.push(u8::from(options.strict));
    put_opt_u64(buf, options.deadline_ms);
}

fn put_eval_params(buf: &mut Vec<u8>, params: &WireEvalParams) {
    put_u64(buf, params.vectors as u64);
    put_f64_bits(buf, params.sp);
    put_f64_bits(buf, params.st);
    put_u64(buf, params.seed);
    put_opt_u64(buf, params.deadline_ms);
}

/// Bit-packs patterns as `words_per_pattern = ceil(num_inputs / 64)`
/// little-endian `u64` words per pattern; input `i` is bit `i % 64` of
/// word `i / 64`.
fn put_patterns(buf: &mut Vec<u8>, patterns: &[Vec<bool>]) {
    let num_inputs = patterns.first().map_or(0, Vec::len);
    put_u32(buf, num_inputs as u32);
    put_u32(buf, patterns.len() as u32);
    let words = num_inputs.div_ceil(64);
    for pattern in patterns {
        let mut packed = vec![0u64; words];
        for (i, &bit) in pattern.iter().enumerate() {
            if bit {
                packed[i / 64] |= 1u64 << (i % 64);
            }
        }
        for word in packed {
            put_u64(buf, word);
        }
    }
}

fn put_values(buf: &mut Vec<u8>, values: &[f64]) {
    put_u32(buf, values.len() as u32);
    for &v in values {
        put_f64_bits(buf, v);
    }
}

// ---- payload reader -------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| format!("truncated payload (need {n} more bytes)"))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn f64_bits(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn string(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "non-UTF-8 string".to_owned())
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, String> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            other => Err(format!("bad presence byte {other:#04x}")),
        }
    }

    fn build_options(&mut self) -> Result<WireBuildOptions, String> {
        Ok(WireBuildOptions {
            max_nodes: self.opt_u64()?.map(|n| n as usize),
            upper_bound: self.u8()? != 0,
            node_budget: self.opt_u64()?,
            strict: self.u8()? != 0,
            deadline_ms: self.opt_u64()?,
        })
    }

    fn eval_params(&mut self) -> Result<WireEvalParams, String> {
        let vectors = self.u64()? as usize;
        let sp = self.f64_bits()?;
        let st = self.f64_bits()?;
        let seed = self.u64()?;
        let deadline_ms = self.opt_u64()?;
        if !sp.is_finite() || !st.is_finite() {
            return Err("sp/st must be finite".to_owned());
        }
        Ok(WireEvalParams {
            vectors,
            sp,
            st,
            seed,
            deadline_ms,
        })
    }

    fn patterns(&mut self) -> Result<Vec<Vec<bool>>, String> {
        let num_inputs = self.u32()? as usize;
        let num_patterns = self.u32()? as usize;
        if num_inputs == 0 {
            return Err("patterns must have at least one input".to_owned());
        }
        let words = num_inputs.div_ceil(64);
        // Bound every allocation below by the payload: a lying header
        // must not reserve memory its bytes cannot fill.
        let remaining = self.buf.len() - self.pos;
        if num_patterns
            .checked_mul(words)
            .and_then(|w| w.checked_mul(8))
            .is_none_or(|bytes| bytes > remaining)
        {
            return Err(format!(
                "{num_patterns} patterns of {num_inputs} inputs exceed payload"
            ));
        }
        let mut patterns = Vec::with_capacity(num_patterns);
        for _ in 0..num_patterns {
            let mut pattern = Vec::with_capacity(num_inputs);
            let mut packed = Vec::with_capacity(words);
            for _ in 0..words {
                packed.push(self.u64()?);
            }
            for i in 0..num_inputs {
                pattern.push(packed[i / 64] >> (i % 64) & 1 == 1);
            }
            patterns.push(pattern);
        }
        Ok(patterns)
    }

    fn values(&mut self) -> Result<Vec<f64>, String> {
        let count = self.u32()? as usize;
        // The frame cap already bounds count * 8; this guards a lying
        // count inside an honest frame.
        if count * 8 > self.buf.len() {
            return Err(format!("value count {count} exceeds payload"));
        }
        let mut values = Vec::with_capacity(count);
        for _ in 0..count {
            values.push(self.f64_bits()?);
        }
        Ok(values)
    }

    fn finish(self) -> Result<(), String> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            ))
        }
    }
}

// ---- request/response codecs ---------------------------------------

/// Appends one request frame (length prefix included) to `out`.
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    let start = out.len();
    put_u32(out, 0); // patched below
    match req {
        Request::Load { source, options } => {
            out.push(req_type::LOAD);
            put_str(out, source);
            put_build_options(out, options);
        }
        Request::Eval {
            source,
            options,
            params,
        } => {
            out.push(req_type::EVAL);
            put_str(out, source);
            put_build_options(out, options);
            put_eval_params(out, params);
        }
        Request::Trace {
            source,
            options,
            params,
        } => {
            out.push(req_type::TRACE);
            put_str(out, source);
            put_build_options(out, options);
            put_eval_params(out, params);
        }
        Request::TraceDirect {
            source,
            options,
            patterns,
            deadline_ms,
        } => {
            out.push(req_type::TRACE_DIRECT);
            put_str(out, source);
            put_build_options(out, options);
            put_opt_u64(out, *deadline_ms);
            put_patterns(out, patterns);
        }
        Request::Expected { source, sp, st } => {
            out.push(req_type::EXPECTED);
            put_str(out, source);
            put_f64_bits(out, *sp);
            put_f64_bits(out, *st);
        }
        Request::SeqLoad { source, options } => {
            out.push(req_type::SEQ_LOAD);
            put_str(out, source);
            put_build_options(out, options);
        }
        Request::SeqEval {
            source,
            options,
            params,
        } => {
            out.push(req_type::SEQ_EVAL);
            put_str(out, source);
            put_build_options(out, options);
            put_eval_params(out, params);
        }
        Request::Stats => out.push(req_type::STATS),
        Request::Metrics => out.push(req_type::METRICS),
        Request::Shutdown => out.push(req_type::SHUTDOWN),
    }
    patch_len(out, start);
}

/// Decodes one request frame body.
///
/// # Errors
///
/// A diagnostic suitable for a typed `bad-request` error frame.
pub fn decode_request(ty: u8, payload: &[u8]) -> Result<Request, String> {
    let mut r = Reader::new(payload);
    let req = match ty {
        req_type::LOAD => Request::Load {
            source: r.string()?,
            options: r.build_options()?,
        },
        req_type::EVAL => Request::Eval {
            source: r.string()?,
            options: strip_deadline(r.build_options()?),
            params: r.eval_params()?,
        },
        req_type::TRACE => Request::Trace {
            source: r.string()?,
            options: strip_deadline(r.build_options()?),
            params: r.eval_params()?,
        },
        req_type::TRACE_DIRECT => {
            let source = r.string()?;
            let options = strip_deadline(r.build_options()?);
            let deadline_ms = r.opt_u64()?;
            let patterns = r.patterns()?;
            Request::TraceDirect {
                source,
                options,
                patterns,
                deadline_ms,
            }
        }
        req_type::EXPECTED => {
            let source = r.string()?;
            let sp = r.f64_bits()?;
            let st = r.f64_bits()?;
            if !sp.is_finite() || !st.is_finite() {
                return Err("sp/st must be finite".to_owned());
            }
            Request::Expected { source, sp, st }
        }
        req_type::SEQ_LOAD => Request::SeqLoad {
            source: r.string()?,
            options: r.build_options()?,
        },
        req_type::SEQ_EVAL => Request::SeqEval {
            source: r.string()?,
            options: strip_deadline(r.build_options()?),
            params: r.eval_params()?,
        },
        req_type::STATS => Request::Stats,
        req_type::METRICS => Request::Metrics,
        req_type::SHUTDOWN => Request::Shutdown,
        other => return Err(format!("unknown request frame type {other:#04x}")),
    };
    r.finish()?;
    Ok(req)
}

/// `eval`/`trace` keep build options' `deadline_ms` out of the registry
/// key by construction (the wire carries the deadline in the eval
/// params / request deadline instead). Mirror the JSON parser, which
/// never populates it for these commands.
fn strip_deadline(options: WireBuildOptions) -> WireBuildOptions {
    WireBuildOptions {
        deadline_ms: None,
        ..options
    }
}

/// Appends one response frame (length prefix included) to `out`.
pub fn encode_response(resp: &Response, out: &mut Vec<u8>) {
    let start = out.len();
    put_u32(out, 0); // patched below
    match resp {
        Response::Load {
            name,
            instrs,
            terminals,
            bytes,
            apply_steps,
            resident,
        } => {
            out.push(resp_type::LOAD);
            put_str(out, name);
            put_u64(out, *instrs as u64);
            put_u64(out, *terminals as u64);
            put_u64(out, *bytes as u64);
            put_u64(out, *apply_steps);
            out.push(u8::from(*resident));
        }
        Response::Eval {
            name,
            transitions,
            sum_ff,
            max_ff,
        } => {
            out.push(resp_type::EVAL);
            put_str(out, name);
            put_u64(out, *transitions as u64);
            put_f64_bits(out, *sum_ff);
            put_f64_bits(out, *max_ff);
        }
        Response::Trace { name, values } => {
            out.push(resp_type::TRACE);
            put_str(out, name);
            put_values(out, values);
        }
        Response::Expected { name, value } => {
            out.push(resp_type::EXPECTED);
            put_str(out, name);
            put_f64_bits(out, *value);
        }
        Response::Stats(payload) => {
            out.push(resp_type::STATS);
            put_str(out, &payload.to_line());
        }
        Response::Metrics(text) => {
            out.push(resp_type::METRICS);
            put_str(out, text);
        }
        Response::SeqLoad {
            name,
            macros,
            latches,
            instrs,
            bytes,
            apply_steps,
            cache_hits,
            resident,
        } => {
            out.push(resp_type::SEQ_LOAD);
            put_str(out, name);
            put_u64(out, *macros as u64);
            put_u64(out, *latches as u64);
            put_u64(out, *instrs as u64);
            put_u64(out, *bytes as u64);
            put_u64(out, *apply_steps);
            put_u64(out, *cache_hits);
            out.push(u8::from(*resident));
        }
        Response::SeqEval {
            name,
            transitions,
            sum_ff,
            max_ff,
            macros,
        } => {
            out.push(resp_type::SEQ_EVAL);
            put_str(out, name);
            put_u64(out, *transitions as u64);
            put_f64_bits(out, *sum_ff);
            put_f64_bits(out, *max_ff);
            put_u32(out, macros.len() as u32);
            for m in macros {
                put_str(out, &m.name);
                put_f64_bits(out, m.sum_ff);
                put_f64_bits(out, m.max_ff);
            }
        }
        Response::Shutdown => out.push(resp_type::SHUTDOWN),
        Response::Error {
            kind,
            message,
            retry_after_ms,
        } => {
            out.push(resp_type::ERROR);
            out.push(kind.code());
            put_opt_u64(out, *retry_after_ms);
            put_str(out, message);
        }
    }
    patch_len(out, start);
}

/// Decodes one response frame body.
///
/// # Errors
///
/// A diagnostic when the frame is not a valid response.
pub fn decode_response(ty: u8, payload: &[u8]) -> Result<Response, String> {
    let mut r = Reader::new(payload);
    let resp = match ty {
        resp_type::LOAD => Response::Load {
            name: r.string()?,
            instrs: r.u64()? as usize,
            terminals: r.u64()? as usize,
            bytes: r.u64()? as usize,
            apply_steps: r.u64()?,
            resident: r.u8()? != 0,
        },
        resp_type::EVAL => Response::Eval {
            name: r.string()?,
            transitions: r.u64()? as usize,
            sum_ff: r.f64_bits()?,
            max_ff: r.f64_bits()?,
        },
        resp_type::TRACE => Response::Trace {
            name: r.string()?,
            values: r.values()?,
        },
        resp_type::EXPECTED => Response::Expected {
            name: r.string()?,
            value: r.f64_bits()?,
        },
        resp_type::STATS => {
            let text = r.string()?;
            Response::Stats(crate::json::parse(&text).unwrap_or(Json::Null))
        }
        resp_type::METRICS => Response::Metrics(r.string()?),
        resp_type::SEQ_LOAD => Response::SeqLoad {
            name: r.string()?,
            macros: r.u64()? as usize,
            latches: r.u64()? as usize,
            instrs: r.u64()? as usize,
            bytes: r.u64()? as usize,
            apply_steps: r.u64()?,
            cache_hits: r.u64()?,
            resident: r.u8()? != 0,
        },
        resp_type::SEQ_EVAL => {
            let name = r.string()?;
            let transitions = r.u64()? as usize;
            let sum_ff = r.f64_bits()?;
            let max_ff = r.f64_bits()?;
            let count = r.u32()? as usize;
            // Each summary is at least 20 bytes; guard a lying count.
            if count * 20 > r.buf.len() {
                return Err(format!("macro count {count} exceeds payload"));
            }
            let mut macros = Vec::with_capacity(count);
            for _ in 0..count {
                macros.push(WireMacroSummary {
                    name: r.string()?,
                    sum_ff: r.f64_bits()?,
                    max_ff: r.f64_bits()?,
                });
            }
            Response::SeqEval {
                name,
                transitions,
                sum_ff,
                max_ff,
                macros,
            }
        }
        resp_type::SHUTDOWN => Response::Shutdown,
        resp_type::ERROR => {
            let kind = ErrorKind::from_code(r.u8()?);
            let retry_after_ms = r.opt_u64()?;
            let message = r.string()?;
            Response::Error {
                kind,
                message,
                retry_after_ms,
            }
        }
        other => return Err(format!("unknown response frame type {other:#04x}")),
    };
    r.finish()?;
    Ok(resp)
}

fn patch_len(out: &mut [u8], start: usize) {
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: &Request) -> Request {
        let mut buf = Vec::new();
        encode_request(req, &mut buf);
        let frame = try_frame(&buf).expect("frames").expect("complete frame");
        assert_eq!(frame.consumed, buf.len());
        decode_request(frame.ty, &buf[frame.payload_start..frame.payload_end]).expect("decodes")
    }

    fn roundtrip_response(resp: &Response) -> Response {
        let mut buf = Vec::new();
        encode_response(resp, &mut buf);
        let frame = try_frame(&buf).expect("frames").expect("complete frame");
        decode_response(frame.ty, &buf[frame.payload_start..frame.payload_end]).expect("decodes")
    }

    #[test]
    fn hello_negotiation_round_trips() {
        let hello = encode_hello(1, 3);
        assert_eq!(parse_hello(&hello).expect("parses"), (1, 3));
        let ack = encode_hello_ack(2);
        assert_eq!(parse_hello_ack(&ack).expect("parses"), 2);
        assert!(parse_hello_ack(&encode_hello_ack(0)).is_err(), "0 rejects");
        let mut bad = hello;
        bad[0] = b'X';
        assert!(parse_hello(&bad).is_err(), "bad magic rejected");
        assert!(parse_hello(&encode_hello(5, 2)).is_err(), "inverted range");
    }

    #[test]
    fn requests_round_trip_through_frames() {
        let reqs = [
            Request::Load {
                source: "decod".to_owned(),
                options: WireBuildOptions {
                    max_nodes: Some(300),
                    upper_bound: true,
                    node_budget: Some(500),
                    strict: true,
                    deadline_ms: Some(750),
                },
            },
            Request::Eval {
                source: "x.blif".to_owned(),
                options: WireBuildOptions::default(),
                params: WireEvalParams {
                    vectors: 500,
                    sp: 0.5,
                    st: 0.3,
                    seed: u64::MAX,
                    deadline_ms: None,
                },
            },
            Request::Trace {
                source: "decod".to_owned(),
                options: WireBuildOptions {
                    max_nodes: Some(128),
                    ..WireBuildOptions::default()
                },
                params: WireEvalParams {
                    vectors: 64,
                    sp: 0.25,
                    st: 0.75,
                    seed: 7,
                    deadline_ms: Some(10),
                },
            },
            Request::TraceDirect {
                source: "wide".to_owned(),
                options: WireBuildOptions::default(),
                // 70 inputs forces two packed words per pattern.
                patterns: (0..5)
                    .map(|p| (0..70).map(|i| (i + p) % 3 == 0).collect())
                    .collect(),
                deadline_ms: None,
            },
            Request::Expected {
                source: "decod".to_owned(),
                sp: 0.1,
                st: 0.9,
            },
            Request::SeqLoad {
                source: "pipe2.blif".to_owned(),
                options: WireBuildOptions {
                    max_nodes: Some(4096),
                    ..WireBuildOptions::default()
                },
            },
            Request::SeqEval {
                source: "pipe2.blif".to_owned(),
                options: WireBuildOptions::default(),
                params: WireEvalParams {
                    vectors: 256,
                    sp: 0.5,
                    st: 0.4,
                    seed: 11,
                    deadline_ms: Some(900),
                },
            },
            Request::Stats,
            Request::Metrics,
            Request::Shutdown,
        ];
        for req in &reqs {
            assert_eq!(&roundtrip_request(req), req);
        }
    }

    #[test]
    fn responses_round_trip_bit_exactly() {
        let awkward = [0.1 + 0.2, f64::NEG_INFINITY, -0.0, 1.0e-308];
        let resps = [
            Response::Load {
                name: "decod".to_owned(),
                instrs: 42,
                terminals: 7,
                bytes: 1024,
                apply_steps: 0,
                resident: true,
            },
            Response::Eval {
                name: "decod".to_owned(),
                transitions: 499,
                sum_ff: 0.1 + 0.2,
                max_ff: 151.0,
            },
            Response::Trace {
                name: "decod".to_owned(),
                values: awkward.to_vec(),
            },
            Response::Expected {
                name: "decod".to_owned(),
                value: -0.0,
            },
            Response::Metrics("charfree_requests_total 7\n".to_owned()),
            Response::SeqLoad {
                name: "pipe2".to_owned(),
                macros: 2,
                latches: 2,
                instrs: 99,
                bytes: 4096,
                apply_steps: 0,
                cache_hits: 2,
                resident: false,
            },
            Response::SeqEval {
                name: "pipe2".to_owned(),
                transitions: 255,
                sum_ff: 0.1 + 0.2,
                max_ff: 42.0,
                macros: vec![
                    WireMacroSummary {
                        name: "pipe2__m0".to_owned(),
                        sum_ff: -0.0,
                        max_ff: 1.0e-308,
                    },
                    WireMacroSummary {
                        name: "pipe2__m1".to_owned(),
                        sum_ff: f64::NEG_INFINITY,
                        max_ff: 7.5,
                    },
                ],
            },
            Response::Shutdown,
            Response::Error {
                kind: ErrorKind::Overloaded,
                message: "423 in flight".to_owned(),
                retry_after_ms: Some(25),
            },
        ];
        for resp in &resps {
            let got = roundtrip_response(resp);
            if let (Response::Trace { values: a, .. }, Response::Trace { values: b, .. }) =
                (resp, &got)
            {
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
            assert_eq!(&got, resp);
        }
    }

    #[test]
    fn incomplete_frames_ask_for_more_bytes() {
        let mut buf = Vec::new();
        encode_request(&Request::Stats, &mut buf);
        for cut in 0..buf.len() {
            assert!(
                try_frame(&buf[..cut]).expect("no error").is_none(),
                "cut at {cut} must report incomplete"
            );
        }
        assert!(try_frame(&buf).expect("no error").is_some());
    }

    #[test]
    fn hostile_length_prefixes_are_rejected_from_the_prefix_alone() {
        // Oversized: rejected before any body is buffered.
        let huge = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes();
        assert!(try_frame(&huge).is_err());
        // Zero-length: no room for the type byte.
        assert!(try_frame(&0u32.to_le_bytes()).is_err());
    }

    #[test]
    fn truncated_and_trailing_payloads_are_typed_errors() {
        let mut buf = Vec::new();
        encode_request(
            &Request::Load {
                source: "decod".to_owned(),
                options: WireBuildOptions::default(),
            },
            &mut buf,
        );
        let frame = try_frame(&buf).expect("frames").expect("complete");
        let payload = &buf[frame.payload_start..frame.payload_end];
        // Truncation at every split point must error, never panic.
        for cut in 0..payload.len() {
            assert!(decode_request(frame.ty, &payload[..cut]).is_err());
        }
        // Trailing garbage is rejected too (sync loss detection).
        let mut bloated = payload.to_vec();
        bloated.push(0xAB);
        assert!(decode_request(frame.ty, &bloated).is_err());
        // Unknown frame types are typed errors.
        assert!(decode_request(0x7E, payload).is_err());
        assert!(decode_response(0x13, payload).is_err());
    }

    #[test]
    fn lying_value_counts_inside_honest_frames_are_rejected() {
        let mut buf = Vec::new();
        buf.push(resp_type::TRACE);
        // name = ""
        put_str(&mut buf, "");
        // claimed 1M values, zero bytes of data
        put_u32(&mut buf, 1_000_000);
        assert!(decode_response(buf[0], &buf[1..]).is_err());
    }

    #[test]
    fn lying_pattern_headers_fail_typed_before_allocating() {
        let mut head = Vec::new();
        put_str(&mut head, "decod");
        head.extend_from_slice(&[0, 0, 0, 0, 0]); // default build options
        head.push(0); // no deadline
        for (num_inputs, num_patterns) in [(u32::MAX, u32::MAX), (u32::MAX, 1), (5, u32::MAX)] {
            let mut payload = head.clone();
            put_u32(&mut payload, num_inputs);
            put_u32(&mut payload, num_patterns);
            let err = decode_request(req_type::TRACE_DIRECT, &payload)
                .expect_err("a header the payload cannot back is rejected");
            assert!(err.contains("exceed payload"), "{err}");
        }
    }
}
