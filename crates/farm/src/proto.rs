//! The farm's wire protocol: newline-delimited JSON-RPC.
//!
//! Each request is one JSON object on one UTF-8 line — `{"id": 1,
//! "method": "session.run", "params": {...}}` — and each response one
//! object on one line: `{"id": 1, "ok": {...}}` or `{"id": 1, "error":
//! {"code": -32601, "message": "..."}}`. Responses to a connection are
//! written in request order. The protocol is deliberately self-describing
//! text so any language with a JSON library and a TCP socket can drive the
//! farm.
//!
//! Both ends send each message (body plus `'\n'`) with one write and set
//! `TCP_NODELAY`: a message split over two writes would leave its second
//! segment to Nagle's algorithm (RFC 896), which holds it until the peer's
//! delayed ACK (RFC 1122 §4.2.3.2), tens of milliseconds per direction.
//!
//! The server bounds what a client can hold: a request line is at most
//! [`MAX_LINE`] bytes, at most [`MAX_CONNECTIONS`] connections are open at
//! once, a connection idle for [`IDLE_TIMEOUT`] is closed (sessions
//! outlive connections, so only the socket is lost), and one `mem.read`
//! returns at most [`MAX_MEM_READ_WORDS`] words.
//!
//! Error codes follow JSON-RPC for the transport layer (-32700 parse,
//! including a line that is not UTF-8; -32600 invalid request; -32601
//! method not found; -32602 invalid params), use its server-error range
//! for the transport limits ([`ERR_REQUEST_TOO_LARGE`],
//! [`ERR_TOO_MANY_CONNECTIONS`]; the connection is closed after either),
//! and use a small positive space for farm semantics ([`ERR_NO_SESSION`],
//! [`ERR_ALREADY_ATTACHED`], ...).

use serde::Value;
use std::time::Duration;

/// Longest request line the server reads, in bytes, excluding the `'\n'`.
pub const MAX_LINE: usize = 1 << 20;
/// Most connections a server keeps open at once.
pub const MAX_CONNECTIONS: usize = 256;
/// How long a connection may sit between requests before the server
/// closes it.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(300);
/// Most words one `mem.read` may ask for.
pub const MAX_MEM_READ_WORDS: u64 = 4096;

/// Request line was not valid UTF-8 JSON.
pub const ERR_PARSE: i64 = -32700;
/// Request JSON was not a `{id?, method, params?}` object.
pub const ERR_INVALID_REQUEST: i64 = -32600;
/// Unknown method name.
pub const ERR_METHOD_NOT_FOUND: i64 = -32601;
/// Parameters missing or of the wrong type.
pub const ERR_INVALID_PARAMS: i64 = -32602;
/// Request line longer than [`MAX_LINE`]; the server closes the
/// connection after answering, since it no longer knows where the next
/// line starts.
pub const ERR_REQUEST_TOO_LARGE: i64 = -32001;
/// The server already has [`MAX_CONNECTIONS`] open; it answers the new
/// connection with this error and closes it.
pub const ERR_TOO_MANY_CONNECTIONS: i64 = -32002;
/// No session with the given id.
pub const ERR_NO_SESSION: i64 = 1001;
/// `session.attach` on a session already attached.
pub const ERR_ALREADY_ATTACHED: i64 = 1002;
/// `session.detach` on a session not attached.
pub const ERR_NOT_ATTACHED: i64 = 1003;
/// A device/host/trace operation on the session failed.
pub const ERR_DEVICE: i64 = 1004;
/// Snapshot persistence or revival failed (I/O, corruption, hash
/// mismatch).
pub const ERR_SNAPSHOT: i64 = 1005;

/// One parsed request line.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed back in the response.
    pub id: Option<i64>,
    /// Method name, e.g. `session.run`.
    pub method: String,
    /// Parameter object (an empty map when the line had none).
    pub params: Value,
}

/// A protocol-level error: code plus human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpcError {
    /// Error code (see the `ERR_*` constants).
    pub code: i64,
    /// Human-readable detail.
    pub message: String,
}

impl RpcError {
    /// Builds an error.
    pub fn new(code: i64, message: impl Into<String>) -> RpcError {
        RpcError {
            code,
            message: message.into(),
        }
    }

    /// An [`ERR_INVALID_PARAMS`] error.
    pub fn params(message: impl Into<String>) -> RpcError {
        RpcError::new(ERR_INVALID_PARAMS, message)
    }
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rpc error {}: {}", self.code, self.message)
    }
}

impl std::error::Error for RpcError {}

/// Parses one request line, as read off the wire.
///
/// # Errors
///
/// [`ERR_PARSE`] on bytes that are not UTF-8 or not JSON,
/// [`ERR_INVALID_REQUEST`] when the object lacks a string `method`.
pub fn parse_request(line: &[u8]) -> Result<Request, RpcError> {
    let line = std::str::from_utf8(line)
        .map_err(|e| RpcError::new(ERR_PARSE, format!("request is not UTF-8: {e}")))?;
    let v: Value = serde_json::from_str(line)
        .map_err(|e| RpcError::new(ERR_PARSE, format!("parse error: {e}")))?;
    let Value::Map(entries) = &v else {
        return Err(RpcError::new(
            ERR_INVALID_REQUEST,
            "request is not an object",
        ));
    };
    let mut id = None;
    let mut method = None;
    let mut params = Value::Map(Vec::new());
    for (k, val) in entries {
        match k.as_str() {
            "id" => {
                if let Value::Int(i) = val {
                    id = i64::try_from(*i).ok();
                }
            }
            "method" => {
                if let Value::Str(s) = val {
                    method = Some(s.clone());
                }
            }
            "params" => params = val.clone(),
            _ => {}
        }
    }
    let method = method
        .ok_or_else(|| RpcError::new(ERR_INVALID_REQUEST, "request lacks a string `method`"))?;
    Ok(Request { id, method, params })
}

/// Renders a success response line (no trailing newline).
pub fn render_ok(id: Option<i64>, result: Value) -> String {
    let resp = obj(vec![("id", id_value(id)), ("ok", result)]);
    serde_json::to_string(&resp).expect("response serializes")
}

/// Renders an error response line (no trailing newline).
pub fn render_err(id: Option<i64>, err: &RpcError) -> String {
    render_err_with_data(id, err, None)
}

/// Renders an error response line carrying an optional `flight_recorder`
/// payload inside the error object — the last-N obs-journal events
/// leading up to a farm-semantic failure.
pub fn render_err_with_data(
    id: Option<i64>,
    err: &RpcError,
    flight_recorder: Option<Value>,
) -> String {
    let mut error = vec![
        ("code", Value::Int(err.code as i128)),
        ("message", Value::Str(err.message.clone())),
    ];
    if let Some(data) = flight_recorder {
        error.push(("flight_recorder", data));
    }
    let resp = obj(vec![("id", id_value(id)), ("error", obj(error))]);
    serde_json::to_string(&resp).expect("response serializes")
}

fn id_value(id: Option<i64>) -> Value {
    match id {
        Some(i) => Value::Int(i as i128),
        None => Value::Null,
    }
}

// ---- Value builders ----------------------------------------------------

/// Builds a JSON object value from `(key, value)` pairs.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// An unsigned integer value.
pub fn vint(n: u64) -> Value {
    Value::Int(n as i128)
}

/// A string value.
pub fn vstr(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// A bool value.
pub fn vbool(b: bool) -> Value {
    Value::Bool(b)
}

// ---- parameter accessors -----------------------------------------------

fn lookup<'a>(params: &'a Value, key: &str) -> Option<&'a Value> {
    match params {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A required `u64` parameter.
///
/// # Errors
///
/// [`ERR_INVALID_PARAMS`] when missing or not a non-negative integer.
pub fn p_u64(params: &Value, key: &str) -> Result<u64, RpcError> {
    match lookup(params, key) {
        Some(Value::Int(i)) => {
            u64::try_from(*i).map_err(|_| RpcError::params(format!("`{key}` out of range")))
        }
        Some(_) => Err(RpcError::params(format!("`{key}` is not an integer"))),
        None => Err(RpcError::params(format!("missing `{key}`"))),
    }
}

/// An optional `u64` parameter with a default.
///
/// # Errors
///
/// [`ERR_INVALID_PARAMS`] when present but malformed.
pub fn p_u64_or(params: &Value, key: &str, default: u64) -> Result<u64, RpcError> {
    match lookup(params, key) {
        None | Some(Value::Null) => Ok(default),
        _ => p_u64(params, key),
    }
}

/// A required `u32` parameter.
///
/// # Errors
///
/// [`ERR_INVALID_PARAMS`] when missing or out of range.
pub fn p_u32(params: &Value, key: &str) -> Result<u32, RpcError> {
    u32::try_from(p_u64(params, key)?)
        .map_err(|_| RpcError::params(format!("`{key}` out of u32 range")))
}

/// A required string parameter.
///
/// # Errors
///
/// [`ERR_INVALID_PARAMS`] when missing or not a string.
pub fn p_str<'a>(params: &'a Value, key: &str) -> Result<&'a str, RpcError> {
    match lookup(params, key) {
        Some(Value::Str(s)) => Ok(s),
        Some(_) => Err(RpcError::params(format!("`{key}` is not a string"))),
        None => Err(RpcError::params(format!("missing `{key}`"))),
    }
}

/// An optional string parameter.
///
/// # Errors
///
/// [`ERR_INVALID_PARAMS`] when present but not a string.
pub fn p_str_opt<'a>(params: &'a Value, key: &str) -> Result<Option<&'a str>, RpcError> {
    match lookup(params, key) {
        Some(Value::Str(s)) => Ok(Some(s)),
        Some(Value::Null) | None => Ok(None),
        Some(_) => Err(RpcError::params(format!("`{key}` is not a string"))),
    }
}

/// A required array-of-strings parameter.
///
/// # Errors
///
/// [`ERR_INVALID_PARAMS`] when missing or malformed.
pub fn p_strings(params: &Value, key: &str) -> Result<Vec<String>, RpcError> {
    match lookup(params, key) {
        Some(Value::Seq(items)) => items
            .iter()
            .map(|v| match v {
                Value::Str(s) => Ok(s.clone()),
                _ => Err(RpcError::params(format!("`{key}` element is not a string"))),
            })
            .collect(),
        Some(_) => Err(RpcError::params(format!("`{key}` is not an array"))),
        None => Err(RpcError::params(format!("missing `{key}`"))),
    }
}

/// An optional bool parameter with a default.
///
/// # Errors
///
/// [`ERR_INVALID_PARAMS`] when present but not a bool.
pub fn p_bool_or(params: &Value, key: &str, default: bool) -> Result<bool, RpcError> {
    match lookup(params, key) {
        Some(Value::Bool(b)) => Ok(*b),
        Some(Value::Null) | None => Ok(default),
        Some(_) => Err(RpcError::params(format!("`{key}` is not a bool"))),
    }
}

/// A required array-of-`u32` parameter.
///
/// # Errors
///
/// [`ERR_INVALID_PARAMS`] when missing or malformed.
pub fn p_words(params: &Value, key: &str) -> Result<Vec<u32>, RpcError> {
    match lookup(params, key) {
        Some(Value::Seq(items)) => items
            .iter()
            .map(|v| match v {
                Value::Int(i) => u32::try_from(*i)
                    .map_err(|_| RpcError::params(format!("`{key}` element out of u32 range"))),
                _ => Err(RpcError::params(format!(
                    "`{key}` element is not an integer"
                ))),
            })
            .collect(),
        Some(_) => Err(RpcError::params(format!("`{key}` is not an array"))),
        None => Err(RpcError::params(format!("missing `{key}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let req =
            parse_request(br#"{"id": 7, "method": "session.run", "params": {"cycles": 1000}}"#)
                .unwrap();
        assert_eq!(req.id, Some(7));
        assert_eq!(req.method, "session.run");
        assert_eq!(p_u64(&req.params, "cycles").unwrap(), 1000);
        assert_eq!(p_u64_or(&req.params, "session", 0).unwrap(), 0);
    }

    #[test]
    fn malformed_line_is_parse_error() {
        let err = parse_request(b"{not json").unwrap_err();
        assert_eq!(err.code, ERR_PARSE);
        let err = parse_request(b"\xff\xfe{}").unwrap_err();
        assert_eq!(err.code, ERR_PARSE);
        let err = parse_request(br#"{"id": 1}"#).unwrap_err();
        assert_eq!(err.code, ERR_INVALID_REQUEST);
        let err = parse_request(b"[1,2]").unwrap_err();
        assert_eq!(err.code, ERR_INVALID_REQUEST);
    }

    #[test]
    fn responses_render_as_single_json_lines() {
        let ok = render_ok(Some(3), obj(vec![("ran", vint(64))]));
        assert_eq!(ok, r#"{"id":3,"ok":{"ran":64}}"#);
        let err = render_err(None, &RpcError::new(ERR_NO_SESSION, "no session 9"));
        assert!(err.contains("\"code\":1001"), "{err}");
        assert!(!ok.contains('\n') && !err.contains('\n'));
    }

    #[test]
    fn word_lists_round_trip() {
        let req =
            parse_request(br#"{"method": "mem.write", "params": {"words": [1, 2, 4294967295]}}"#)
                .unwrap();
        assert_eq!(p_words(&req.params, "words").unwrap(), vec![1, 2, u32::MAX]);
    }
}
