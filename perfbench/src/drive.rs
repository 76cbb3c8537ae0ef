//! Closed-loop load: each client keeps a fixed window of requests in
//! flight on one connection and sends the next only when a reply
//! arrives, like a router or app front end that waits for its answers.

use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use semask::query::SemaSkQuery;
use semask_net::proto::{self, FrameKind, ProtoError};
use semask_net::{ClientConfig, NetClient};
use semask_serve::api::{PendingResponse, Request, Response};
use semask_serve::ServeEngine;

use crate::trace::{shape_key, Recorder, RequestRec};

/// Requests in flight per connection.
pub const WINDOW: usize = 8;

/// One connection's send and receive halves.
pub trait Conn {
    fn send(&mut self, request: Request) -> Result<(), ProtoError>;
    fn recv(&mut self) -> Result<Response, ProtoError>;
}

/// The `semask-net` client, as an application would use it.
pub struct Wire(NetClient);

impl Wire {
    pub fn connect(addr: SocketAddr) -> Self {
        Self(
            NetClient::connect(addr, &ClientConfig::default())
                .expect("connecting to the local server"),
        )
    }
}

impl Conn for Wire {
    fn send(&mut self, request: Request) -> Result<(), ProtoError> {
        self.0.send_request(&request)
    }

    fn recv(&mut self) -> Result<Response, ProtoError> {
        self.0.recv_response()
    }
}

/// The same frames as `NetClient` with the `proto` encode and decode
/// calls timed: the traced run's client.
pub struct TracedWire {
    stream: TcpStream,
    rec: Arc<Recorder>,
}

impl TracedWire {
    pub fn connect(addr: SocketAddr, rec: Arc<Recorder>) -> Self {
        let config = ClientConfig::default();
        let stream = TcpStream::connect(addr).expect("connecting to the local server");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        stream
            .set_read_timeout(Some(config.read_timeout))
            .expect("read timeout");
        Self { stream, rec }
    }
}

impl Conn for TracedWire {
    fn send(&mut self, request: Request) -> Result<(), ProtoError> {
        let t = Instant::now();
        let mut buf = Vec::new();
        proto::encode_frame_into(
            &mut buf,
            FrameKind::Submit,
            request.id,
            &proto::encode_request(&request),
        )?;
        self.rec.codec(request.id, t.elapsed().as_nanos() as u64);
        self.stream.write_all(&buf)?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Response, ProtoError> {
        let frame = proto::read_frame(&mut self.stream)?;
        if frame.kind != FrameKind::SubmitReply {
            return Err(ProtoError::Malformed("expected a submit reply"));
        }
        let t = Instant::now();
        let response = proto::decode_response(&frame.payload)?;
        self.rec.codec(response.id, t.elapsed().as_nanos() as u64);
        Ok(response)
    }
}

/// `ServeEngine::submit_request` and `PendingResponse::wait` in process.
pub struct InProc {
    serve: Arc<ServeEngine>,
    pending: VecDeque<PendingResponse>,
    rec: Option<Arc<Recorder>>,
}

impl InProc {
    pub fn new(serve: Arc<ServeEngine>, rec: Option<Arc<Recorder>>) -> Self {
        Self {
            serve,
            pending: VecDeque::new(),
            rec,
        }
    }
}

impl Conn for InProc {
    fn send(&mut self, request: Request) -> Result<(), ProtoError> {
        let id = request.id;
        self.pending.push_back(self.serve.submit_request(request));
        if let Some(rec) = &self.rec {
            rec.admitted(id, rec.now());
        }
        Ok(())
    }

    fn recv(&mut self) -> Result<Response, ProtoError> {
        Ok(self
            .pending
            .pop_front()
            .expect("a request in flight")
            .wait())
    }
}

/// One reply as the client saw it.
pub struct Reply<'a> {
    pub seq: u64,
    pub query: &'a SemaSkQuery,
    pub response: Result<Response, ProtoError>,
    pub latency_ms: f64,
    /// When the reply arrived.
    pub done: Instant,
}

/// Drives `conn` in a closed loop with `WINDOW` requests in flight until
/// `next` returns `None`, then drains. `next(seq)` supplies the query of
/// the `seq`-th request; `on_reply` sees every reply in order. Returns
/// the elapsed wall time. A broken connection ends the loop; its
/// in-flight requests are reported as failed replies.
pub fn closed_loop(
    conn: &mut dyn Conn,
    id_base: u64,
    mut next: impl FnMut(u64) -> Option<SemaSkQuery>,
    mut on_reply: impl FnMut(Reply<'_>),
    rec: Option<&Recorder>,
) -> Duration {
    let start = Instant::now();
    let mut inflight: VecDeque<(u64, Instant, u64, SemaSkQuery)> = VecDeque::with_capacity(WINDOW);
    let mut seq = 0u64;
    let mut exhausted = false;
    let mut broken = false;
    loop {
        while !exhausted && !broken && inflight.len() < WINDOW {
            match next(seq) {
                None => exhausted = true,
                Some(query) => {
                    let id = id_base + seq;
                    let sent = Instant::now();
                    let sent_ns = rec.map_or(0, Recorder::now);
                    let sent_ok = conn.send(Request::new(id, query.clone()));
                    if let Err(e) = sent_ok {
                        on_reply(Reply {
                            seq,
                            query: &query,
                            response: Err(e),
                            latency_ms: 0.0,
                            done: Instant::now(),
                        });
                        broken = true;
                    } else {
                        inflight.push_back((seq, sent, sent_ns, query));
                    }
                    seq += 1;
                }
            }
        }
        let Some((s, sent, sent_ns, query)) = inflight.pop_front() else {
            break;
        };
        let response = if broken {
            Err(ProtoError::Malformed("connection broke before the reply"))
        } else {
            conn.recv()
        };
        let done = Instant::now();
        let latency_ms = done.duration_since(sent).as_secs_f64() * 1e3;
        match &response {
            Ok(r) if r.id != id_base + s => {
                on_reply(Reply {
                    seq: s,
                    query: &query,
                    response: Err(ProtoError::Malformed("reply out of order")),
                    latency_ms,
                    done,
                });
                broken = true;
                continue;
            }
            Err(_) => broken = true,
            Ok(_) => {}
        }
        if let Some(rec) = rec {
            rec.request(RequestRec {
                id: id_base + s,
                key: shape_key(&query),
                start: sent_ns,
                end: rec.now(),
                ok: response.as_ref().is_ok_and(|r| r.status.is_success()),
            });
        }
        on_reply(Reply {
            seq: s,
            query: &query,
            response,
            latency_ms,
            done,
        });
    }
    start.elapsed()
}
