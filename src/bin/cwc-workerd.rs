//! `cwc-workerd` — the shard farm's network worker daemon.
//!
//! Runs on each machine of a cluster; the coordinator
//! (`distrt::net::TcpShardTransport`, selected with `--transport tcp`)
//! dials it once per shard attempt. Every connection is served through
//! `distrt::net::serve_connection`, the body the one-shot `cwc-shard`
//! child serves its one connection with: a `WorkerHello` registration
//! frame (protocol version + capacity) out, then a `Job` frame carrying
//! the model, the slice spec and the coordinator's pre-compiled
//! dependency graph in, aligned partial cuts plus heartbeats plus one
//! mergeable statistics state out.
//!
//! ```text
//! cwc-workerd --listen 0.0.0.0:7701 --capacity 8
//! ```
//!
//! `--listen` defaults to `127.0.0.1:0` (an ephemeral loopback port);
//! the bound address is printed to stdout as
//! `cwc-workerd listening on <addr>` so harnesses can parse the real
//! port. `--capacity` defaults to the machine's available parallelism.
//!
//! Setting `CWC_SHARD_FAULT` (see `distrt::fault`) arms the
//! fault-injection harness inside the serving path; a fired fault
//! kills the *whole daemon* with exit status 3, so recovery tests
//! exercise the requeue-onto-a-surviving-worker policy with a real
//! worker death.

use std::io::Write;

use cwc_repro::distrt::net::WorkerDaemon;

fn main() {
    let mut listen = String::from("127.0.0.1:0");
    let mut capacity: u64 = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => match args.next() {
                Some(v) => listen = v,
                None => die("--listen needs an address (host:port)"),
            },
            "--capacity" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => capacity = v,
                _ => die("--capacity needs a positive integer"),
            },
            "--help" | "-h" => {
                println!(
                    "usage: cwc-workerd [--listen HOST:PORT] [--capacity N]\n\
                     serves shard attempts over TCP for `--transport tcp` runs"
                );
                return;
            }
            other => die(&format!("unknown argument `{other}` (try --help)")),
        }
    }

    let daemon = match WorkerDaemon::bind(&listen, capacity) {
        Ok(d) => d,
        Err(e) => die(&format!("bind {listen}: {e}")),
    };
    match daemon.local_addr() {
        Ok(addr) => {
            // Parsed by tests/CI to learn an ephemeral port; keep the
            // exact wording stable.
            println!("cwc-workerd listening on {addr}");
            let _ = std::io::stdout().flush();
        }
        Err(e) => die(&format!("local_addr: {e}")),
    }
    if let Err(e) = daemon.run() {
        die(&format!("accept loop failed: {e}"));
    }
}

fn die(msg: &str) -> ! {
    eprintln!("cwc-workerd: {msg}");
    std::process::exit(2);
}
