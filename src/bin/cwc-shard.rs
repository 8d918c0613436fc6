//! `cwc-shard` — the process transport's one-shot loopback worker.
//!
//! Spawned by the coordinator (`distrt::shard::ProcessTransport`), one
//! per shard attempt. It binds an ephemeral loopback port, prints
//! `cwc-shard listening on <addr>` on stdout, and serves exactly one
//! connection through `distrt::net::serve_connection` — the hello plus
//! the shard worker body `cwc-workerd` runs per connection: a `Job`
//! frame carrying the model, the slice spec and the coordinator's
//! pre-compiled dependency graph in; aligned partial cuts, `Progress`
//! heartbeats and one end-of-stream event count out; a `Terminate`
//! frame drains the shard at the next quantum boundaries. See
//! `distrt::shard` for the full contract.
//!
//! stdin is a lifeline that carries no frames: when it closes — the
//! coordinator reaped the child or died — the worker exits within one
//! read, so a child never outlives its coordinator, connected or not.
//!
//! Setting `CWC_SHARD_FAULT` (see `distrt::fault`) arms the
//! fault-injection harness: the worker crashes, stalls, corrupts its
//! stream or starts late on cue so supervisor recovery is testable
//! end-to-end.
//!
//! Not meant to be run by hand; exits 2 on an error (a malformed input
//! stream, a closed lifeline) and 3 when an injected fault fired (so a
//! harness can tell a planned death from a real one).

use std::io::{self, Write};
use std::net::TcpListener;

use cwc_repro::distrt::net::{serve_connection, FAULT_EXIT};
use cwc_repro::distrt::shard::ServeError;

fn main() {
    std::thread::spawn(|| {
        // Returns at EOF: nobody holds the other end any more.
        let _ = io::copy(&mut io::stdin(), &mut io::sink());
        die("stdin closed: the coordinator is gone");
    });
    let listener = TcpListener::bind("127.0.0.1:0").unwrap_or_else(|e| die(&format!("bind: {e}")));
    match listener.local_addr() {
        Ok(addr) => {
            // Parsed by the process transport; keep the wording stable.
            println!("cwc-shard listening on {addr}");
            let _ = io::stdout().flush();
        }
        Err(e) => die(&format!("local_addr: {e}")),
    }
    let (stream, _) = listener
        .accept()
        .unwrap_or_else(|e| die(&format!("accept: {e}")));
    drop(listener);
    if let Err(e) = serve_connection(stream, 1) {
        eprintln!("cwc-shard: {e}");
        let code = match e {
            ServeError::Fault(_) => FAULT_EXIT,
            _ => 2,
        };
        std::process::exit(code);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("cwc-shard: {msg}");
    std::process::exit(2);
}
