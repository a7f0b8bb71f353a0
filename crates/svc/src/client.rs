//! The RPC client: one connection, blocking request/reply calls.

use insitu_fabric::FaultInjector;
use insitu_net::{
    connect_with_retry, recv_frame, send_frame, unexpected_reply, Frame, NetMetrics, RunState,
    RunSummary,
};
use insitu_telemetry::Recorder;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A terminal run's artifacts, as fetched over `RunResult`.
#[derive(Clone, Debug)]
pub struct RunArtifacts {
    /// The run's terminal (or, mid-flight, current) state.
    pub state: RunState,
    /// Merged transfer ledger, rendered as JSON (empty until terminal).
    pub ledger_json: String,
    /// Metrics registry snapshot, rendered as JSON.
    pub metrics_json: String,
    /// Critical-path profile, rendered as JSON.
    pub profile_json: String,
    /// Task errors, sorted.
    pub errors: Vec<String>,
}

/// One connection to a workflow service. Every call sends a single
/// request frame and blocks for the single reply frame; an `RpcErr`
/// reply becomes an `Err` naming the service and carrying its message.
pub struct RpcClient {
    /// The service address this client connected to, named in errors.
    addr: String,
    stream: TcpStream,
    injector: FaultInjector,
    metrics: NetMetrics,
}

impl RpcClient {
    /// Connect to the service at `addr`, retrying until `timeout`.
    pub fn connect(addr: &str, timeout: Duration) -> Result<RpcClient, String> {
        let metrics = NetMetrics::new(&Recorder::disabled());
        let injector = FaultInjector::none();
        let stream =
            connect_with_retry(addr, 0, timeout, &injector, &metrics).map_err(|e| e.to_string())?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("socket setup: {e}"))?;
        Ok(RpcClient {
            addr: addr.to_string(),
            stream,
            injector,
            metrics,
        })
    }

    fn call(&mut self, request: &Frame) -> Result<Frame, String> {
        send_frame(&mut self.stream, request, &self.injector, &self.metrics)
            .map_err(|e| format!("sending request to {}: {e}", self.addr))?;
        recv_frame(&mut self.stream, &self.injector, &self.metrics)
            .map_err(|e| format!("awaiting reply from {}: {e}", self.addr))
    }

    /// Submit a workflow at the default (lowest) priority; returns
    /// `(run id, runs queued ahead)`.
    pub fn submit(
        &mut self,
        name: &str,
        dag: &str,
        config: &str,
        strategy: &str,
        get_timeout: Duration,
    ) -> Result<(u64, u32), String> {
        self.submit_with_priority(name, dag, config, strategy, get_timeout, 0)
    }

    /// Submit a workflow with an admission priority: a higher value is
    /// queued ahead of every lower one, first-come-first-served within
    /// a level.
    pub fn submit_with_priority(
        &mut self,
        name: &str,
        dag: &str,
        config: &str,
        strategy: &str,
        get_timeout: Duration,
        priority: u32,
    ) -> Result<(u64, u32), String> {
        match self.call(&Frame::Submit {
            name: name.to_string(),
            dag: dag.to_string(),
            config: config.to_string(),
            strategy: strategy.to_string(),
            get_timeout_ms: get_timeout.as_millis() as u64,
            priority,
        })? {
            Frame::Submitted { run, queued_ahead } => Ok((run, queued_ahead)),
            other => Err(unexpected_reply("Submitted", &self.addr, &other)),
        }
    }

    /// Cancel a queued or running run; returns its summary after the
    /// request took effect (a running run turns terminal only at its
    /// next wave boundary).
    pub fn cancel(&mut self, run: u64) -> Result<RunSummary, String> {
        match self.call(&Frame::Cancel { run })? {
            Frame::RunStatus(s) => Ok(s),
            other => Err(unexpected_reply("RunStatus", &self.addr, &other)),
        }
    }

    /// Fetch one run's summary.
    pub fn status(&mut self, run: u64) -> Result<RunSummary, String> {
        match self.call(&Frame::Status { run })? {
            Frame::RunStatus(s) => Ok(s),
            other => Err(unexpected_reply("RunStatus", &self.addr, &other)),
        }
    }

    /// Fetch every run's summary, in submission order.
    pub fn list(&mut self) -> Result<Vec<RunSummary>, String> {
        match self.call(&Frame::ListRuns)? {
            Frame::RunList { runs } => Ok(runs),
            other => Err(unexpected_reply("RunList", &self.addr, &other)),
        }
    }

    /// Fetch a run's artifacts (JSON fields are empty until terminal).
    pub fn result(&mut self, run: u64) -> Result<RunArtifacts, String> {
        match self.call(&Frame::RunResult { run })? {
            Frame::RunReport {
                state,
                ledger_json,
                metrics_json,
                profile_json,
                errors,
                ..
            } => Ok(RunArtifacts {
                state,
                ledger_json,
                metrics_json,
                profile_json,
                errors,
            }),
            other => Err(unexpected_reply("RunReport", &self.addr, &other)),
        }
    }

    /// Subscribe to a run's live progress stream: sends `Watch` and
    /// invokes `on_progress` with every `Progress` frame until the
    /// final one (`done = true`; with `once`, the first frame is the
    /// final one). Returns the number of frames received. The service
    /// floors `interval` at its watchdog cadence.
    pub fn watch(
        &mut self,
        run: u64,
        interval: Duration,
        once: bool,
        mut on_progress: impl FnMut(&Frame),
    ) -> Result<u64, String> {
        let request = Frame::Watch {
            run,
            interval_ms: interval.as_millis() as u64,
            once,
        };
        send_frame(&mut self.stream, &request, &self.injector, &self.metrics)
            .map_err(|e| format!("sending watch to {}: {e}", self.addr))?;
        let mut frames = 0u64;
        loop {
            match recv_frame(&mut self.stream, &self.injector, &self.metrics) {
                Ok(frame @ Frame::Progress { .. }) => {
                    frames += 1;
                    let done = matches!(frame, Frame::Progress { done: true, .. });
                    on_progress(&frame);
                    if done {
                        return Ok(frames);
                    }
                }
                Ok(other) => return Err(unexpected_reply("Progress", &self.addr, &other)),
                Err(e) => return Err(format!("awaiting progress from {}: {e}", self.addr)),
            }
        }
    }

    /// Poll `status` until the run reaches a terminal state; fails if
    /// it is still in flight after `timeout`.
    pub fn wait_terminal(&mut self, run: u64, timeout: Duration) -> Result<RunSummary, String> {
        let deadline = Instant::now() + timeout;
        loop {
            let s = self.status(run)?;
            if s.state.is_terminal() {
                return Ok(s);
            }
            if Instant::now() >= deadline {
                return Err(format!("run {run} still {} after {timeout:?}", s.state));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A fake service that answers each request on one connection with
    /// the next canned reply.
    fn fake_service(replies: Vec<Frame>) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            for reply in replies {
                Frame::read_from(&mut stream).unwrap();
                reply.write_to(&mut stream).unwrap();
            }
        });
        (addr, server)
    }

    #[test]
    fn replies_that_are_not_the_awaited_frame_name_the_service() {
        let (addr, server) = fake_service(vec![
            Frame::RpcErr {
                message: "unknown run 7".into(),
            },
            Frame::RunWave { wave: 3 },
        ]);
        let mut client = RpcClient::connect(&addr, Duration::from_secs(10)).unwrap();
        let err = client.status(7).unwrap_err();
        assert!(err.contains(&addr), "{err}");
        assert!(err.contains("unknown run 7"), "{err}");
        let err = client.list().unwrap_err();
        assert!(err.contains(&addr), "{err}");
        assert!(err.contains("expected RunList"), "{err}");
        server.join().unwrap();
    }
}
