//! A small blocking client for the farm wire protocol: one TCP
//! connection, synchronous request/response, typed helpers over the
//! common methods.

use crate::proto::{obj, vbool, vint, vstr, RpcError};
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Client-side failures: transport, protocol shape, or a farm error
/// response.
#[derive(Debug)]
pub enum ClientError {
    /// The TCP connection failed or closed mid-request.
    Io(std::io::Error),
    /// The server sent something that is not a valid response line.
    Protocol(String),
    /// The server answered with an error object.
    Rpc(RpcError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "farm i/o error: {e}"),
            ClientError::Protocol(m) => write!(f, "farm protocol error: {m}"),
            ClientError::Rpc(e) => write!(f, "farm error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// One connection to a farm server.
pub struct FarmClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: i64,
}

impl FarmClient {
    /// Connects to a farm server, with `TCP_NODELAY` set so a request
    /// leaves as soon as it is written.
    ///
    /// # Errors
    ///
    /// I/O errors from connecting.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<FarmClient, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(FarmClient {
            writer: stream,
            reader,
            next_id: 1,
        })
    }

    /// Sends one request and waits for its response, returning the `ok`
    /// payload.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on transport failure, [`ClientError::Protocol`]
    /// on malformed responses, [`ClientError::Rpc`] when the farm answers
    /// with an error.
    pub fn call(&mut self, method: &str, params: Value) -> Result<Value, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let mut line = serde_json::to_string(&obj(vec![
            ("id", Value::Int(id as i128)),
            ("method", vstr(method)),
            ("params", params),
        ]))
        .map_err(|e| ClientError::Protocol(format!("request serialization: {e}")))?;
        line.push('\n');
        self.round_trip(&line)
    }

    /// Sends a raw pre-rendered line (for protocol testing) and returns
    /// the `ok` payload of the response.
    ///
    /// # Errors
    ///
    /// As [`FarmClient::call`].
    pub fn call_raw(&mut self, line: &str) -> Result<Value, ClientError> {
        self.round_trip(&format!("{line}\n"))
    }

    /// Sends one newline-terminated message in one write and reads the
    /// response.
    fn round_trip(&mut self, message: &str) -> Result<Value, ClientError> {
        self.writer.write_all(message.as_bytes())?;
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ClientError::Protocol("connection closed".to_string()));
        }
        let v: Value = serde_json::from_str(line.trim_end())
            .map_err(|e| ClientError::Protocol(format!("bad response: {e}")))?;
        let Value::Map(entries) = &v else {
            return Err(ClientError::Protocol(
                "response is not an object".to_string(),
            ));
        };
        for (k, val) in entries {
            match k.as_str() {
                "ok" => return Ok(val.clone()),
                "error" => {
                    let code = get_i64(val, "code").unwrap_or(0);
                    let message = get_str(val, "message").unwrap_or_default();
                    return Err(ClientError::Rpc(RpcError::new(code, message)));
                }
                _ => {}
            }
        }
        Err(ClientError::Protocol(
            "response has neither `ok` nor `error`".to_string(),
        ))
    }

    // ---- typed helpers ---------------------------------------------------

    /// `session.create` — returns the new session id.
    ///
    /// # Errors
    ///
    /// As [`FarmClient::call`].
    pub fn create(&mut self, workload: &str, trace: bool) -> Result<u64, ClientError> {
        let ok = self.call(
            "session.create",
            obj(vec![("workload", vstr(workload)), ("trace", vbool(trace))]),
        )?;
        require_u64(&ok, "session")
    }

    /// `vehicle.create` — creates one session per workload name, all
    /// grouped under `vehicle`, and returns their ids.
    ///
    /// # Errors
    ///
    /// As [`FarmClient::call`].
    pub fn create_vehicle(
        &mut self,
        vehicle: &str,
        workloads: &[&str],
    ) -> Result<Vec<u64>, ClientError> {
        let ok = self.call(
            "vehicle.create",
            obj(vec![
                ("vehicle", vstr(vehicle)),
                (
                    "workloads",
                    Value::Seq(workloads.iter().map(|w| vstr(*w)).collect()),
                ),
            ]),
        )?;
        match lookup(&ok, "sessions") {
            Some(Value::Seq(items)) => items
                .iter()
                .map(|v| match v {
                    Value::Int(i) => u64::try_from(*i)
                        .map_err(|_| ClientError::Protocol("session id out of range".into())),
                    _ => Err(ClientError::Protocol("session id is not an integer".into())),
                })
                .collect(),
            _ => Err(ClientError::Protocol("response lacks `sessions`".into())),
        }
    }

    /// `farm.health` — returns the rendered fleet table.
    ///
    /// # Errors
    ///
    /// As [`FarmClient::call`].
    pub fn fleet_health(&mut self) -> Result<String, ClientError> {
        let ok = self.call("farm.health", obj(vec![]))?;
        require_str(&ok, "report")
    }

    /// `session.attach`.
    ///
    /// # Errors
    ///
    /// As [`FarmClient::call`].
    pub fn attach(&mut self, session: u64) -> Result<(), ClientError> {
        self.call("session.attach", obj(vec![("session", vint(session))]))?;
        Ok(())
    }

    /// `session.detach`.
    ///
    /// # Errors
    ///
    /// As [`FarmClient::call`].
    pub fn detach(&mut self, session: u64) -> Result<(), ClientError> {
        self.call("session.detach", obj(vec![("session", vint(session))]))?;
        Ok(())
    }

    /// `session.run` — returns `(ran, stopped)` where `stopped` carries
    /// the stop cause string when a core halted.
    ///
    /// # Errors
    ///
    /// As [`FarmClient::call`].
    pub fn run(&mut self, session: u64, cycles: u64) -> Result<(u64, Option<String>), ClientError> {
        let ok = self.call(
            "session.run",
            obj(vec![("session", vint(session)), ("cycles", vint(cycles))]),
        )?;
        let ran = require_u64(&ok, "ran")?;
        let stop = match lookup(&ok, "stop") {
            Some(Value::Map(_)) => get_str(lookup(&ok, "stop").unwrap(), "cause"),
            _ => None,
        };
        Ok((ran, stop))
    }

    /// `session.state_hash`.
    ///
    /// # Errors
    ///
    /// As [`FarmClient::call`].
    pub fn state_hash(&mut self, session: u64) -> Result<u64, ClientError> {
        let ok = self.call("session.state_hash", obj(vec![("session", vint(session))]))?;
        require_u64(&ok, "state_hash")
    }

    /// `session.evict` — returns `(bytes, state_hash)`.
    ///
    /// # Errors
    ///
    /// As [`FarmClient::call`].
    pub fn evict(&mut self, session: u64) -> Result<(u64, u64), ClientError> {
        let ok = self.call("session.evict", obj(vec![("session", vint(session))]))?;
        Ok((require_u64(&ok, "bytes")?, require_u64(&ok, "state_hash")?))
    }

    /// `session.destroy`.
    ///
    /// # Errors
    ///
    /// As [`FarmClient::call`].
    pub fn destroy(&mut self, session: u64) -> Result<(), ClientError> {
        self.call("session.destroy", obj(vec![("session", vint(session))]))?;
        Ok(())
    }

    /// `breakpoint.set` with kind `"hw"` on `core`.
    ///
    /// # Errors
    ///
    /// As [`FarmClient::call`].
    pub fn set_hw_breakpoint(
        &mut self,
        session: u64,
        core: u64,
        addr: u32,
    ) -> Result<(), ClientError> {
        self.call(
            "breakpoint.set",
            obj(vec![
                ("session", vint(session)),
                ("kind", vstr("hw")),
                ("core", vint(core)),
                ("addr", vint(addr as u64)),
            ]),
        )?;
        Ok(())
    }

    /// `trace.pull` — returns `(flow_len, trace_hash)`.
    ///
    /// # Errors
    ///
    /// As [`FarmClient::call`].
    pub fn pull_trace(&mut self, session: u64) -> Result<(u64, u64), ClientError> {
        let ok = self.call("trace.pull", obj(vec![("session", vint(session))]))?;
        Ok((require_u64(&ok, "flow")?, require_u64(&ok, "trace_hash")?))
    }

    /// `obs.journal` — the last `n` journal records plus ring totals, as
    /// the raw response payload (`total`, `overwritten`, `correlations`,
    /// `capacity`, `events`).
    ///
    /// # Errors
    ///
    /// As [`FarmClient::call`].
    pub fn obs_journal(&mut self, n: u64) -> Result<Value, ClientError> {
        self.call("obs.journal", obj(vec![("n", vint(n))]))
    }

    /// `obs.timeline` — the unified wall-clock/sim-cycle Perfetto
    /// timeline as Trace Event Format JSON.
    ///
    /// # Errors
    ///
    /// As [`FarmClient::call`].
    pub fn obs_timeline(&mut self) -> Result<String, ClientError> {
        let ok = self.call("obs.timeline", obj(vec![]))?;
        require_str(&ok, "timeline")
    }

    /// `obs.latency` — per-method request-latency quantiles, as the raw
    /// response payload (a `methods` array of `{method, count, p50_ns,
    /// p90_ns, p99_ns}` rows).
    ///
    /// # Errors
    ///
    /// As [`FarmClient::call`].
    pub fn obs_latency(&mut self) -> Result<Value, ClientError> {
        self.call("obs.latency", obj(vec![]))
    }
}

fn lookup<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, val)| val),
        _ => None,
    }
}

fn get_i64(v: &Value, key: &str) -> Option<i64> {
    match lookup(v, key) {
        Some(Value::Int(i)) => i64::try_from(*i).ok(),
        _ => None,
    }
}

fn get_str(v: &Value, key: &str) -> Option<String> {
    match lookup(v, key) {
        Some(Value::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

/// Extracts a required `u64` field from an `ok` payload.
///
/// # Errors
///
/// [`ClientError::Protocol`] when missing or malformed.
pub fn require_u64(v: &Value, key: &str) -> Result<u64, ClientError> {
    match lookup(v, key) {
        Some(Value::Int(i)) => {
            u64::try_from(*i).map_err(|_| ClientError::Protocol(format!("`{key}` out of range")))
        }
        _ => Err(ClientError::Protocol(format!("response lacks `{key}`"))),
    }
}

/// Extracts a required string field from an `ok` payload.
///
/// # Errors
///
/// [`ClientError::Protocol`] when missing or malformed.
pub fn require_str(v: &Value, key: &str) -> Result<String, ClientError> {
    get_str(v, key).ok_or_else(|| ClientError::Protocol(format!("response lacks `{key}`")))
}
