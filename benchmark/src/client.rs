//! Loopback client discipline on top of [`pastas_serve::client::Conn`].
//!
//! The server closes a keep-alive connection after
//! `max_requests_per_connection` requests (10,000 by default) and says so
//! with `Connection: close` on the last response. A client that keeps
//! writing into that socket sees an error that is not the server's fault.
//! This client honours the header: it reconnects before the next request,
//! counts no failure, and lets the caller's timer — started before
//! [`Client::request`] — charge the reconnect to that next request.
//!
//! The server also drops a connection that stays idle for its read
//! timeout (5 s by default). The harness can idle that long between two
//! requests of one client (in-process replays at 1M take seconds), so a
//! connection left idle for [`IDLE_LIMIT`] is replaced the same way.

use pastas_serve::client::{ClientResponse, Conn};
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// A connection idle for this long is not reused: safely below the
/// server's default 5 s read timeout.
const IDLE_LIMIT: Duration = Duration::from_secs(2);

/// One closed-loop client: at most one request in flight.
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
    idle_limit: Duration,
    conn: Option<(Conn, Instant)>,
    reconnects: u64,
}

impl Client {
    /// A client for `addr`; the connection is opened by the first request.
    pub fn new(addr: SocketAddr, timeout: Duration) -> Client {
        Client {
            addr,
            timeout,
            idle_limit: IDLE_LIMIT,
            conn: None,
            reconnects: 0,
        }
    }

    /// Connections opened after the first one.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Send one request and read its response. An I/O error drops the
    /// connection, so the next request starts on a fresh one.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<ClientResponse> {
        let mut conn = match self.conn.take() {
            Some((conn, last_used)) if last_used.elapsed() < self.idle_limit => conn,
            Some(_) => {
                self.reconnects += 1;
                Conn::connect(self.addr, self.timeout)?
            }
            None => Conn::connect(self.addr, self.timeout)?,
        };
        let response = conn.request(method, path, body)?;
        let closing = response
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"));
        if closing {
            self.reconnects += 1;
        } else {
            self.conn = Some((conn, Instant::now()));
        }
        Ok(response)
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> io::Result<ClientResponse> {
        self.request("GET", path, b"")
    }

    /// `POST path` with a body.
    pub fn post(&mut self, path: &str, body: &[u8]) -> io::Result<ClientResponse> {
        self.request("POST", path, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastas_core::Workbench;
    use pastas_serve::{serve, ServerConfig};
    use pastas_synth::{generate_collection, SynthConfig};

    #[test]
    fn connection_close_reconnects_without_a_failure() {
        let workbench =
            Workbench::from_collection(generate_collection(SynthConfig::with_patients(50), 3));
        let config = ServerConfig {
            max_requests_per_connection: 3,
            ..ServerConfig::default()
        };
        let handle = serve(workbench, config).expect("bind loopback");
        let mut client = Client::new(handle.addr(), Duration::from_secs(10));
        for i in 0..10 {
            let response = client
                .get("/healthz")
                .unwrap_or_else(|e| panic!("request {i}: {e}"));
            assert_eq!(response.status, 200, "request {i}");
        }
        // Requests 3, 6 and 9 carried `Connection: close`.
        assert_eq!(client.reconnects(), 3);
        drop(client);
        handle.shutdown();
    }

    #[test]
    fn an_idle_connection_is_replaced_before_the_server_drops_it() {
        let workbench =
            Workbench::from_collection(generate_collection(SynthConfig::with_patients(50), 3));
        let config = ServerConfig {
            read_timeout: Duration::from_millis(150),
            ..ServerConfig::default()
        };
        let handle = serve(workbench, config).expect("bind loopback");
        let mut client = Client::new(handle.addr(), Duration::from_secs(10));
        client.idle_limit = Duration::from_millis(50);
        assert_eq!(client.get("/healthz").expect("first request").status, 200);
        // Longer than the server's read timeout: the old socket is dead.
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(
            client.get("/healthz").expect("request after idling").status,
            200
        );
        assert_eq!(client.reconnects(), 1);
        drop(client);
        handle.shutdown();
    }
}
