//! `dewrite-serve`: the TCP frontend binary.
//!
//! Binds the listener, spawns the event-loop lanes — the only serving
//! threads: a lane runs the shard for each request it decodes — and serves
//! until a client sends `Shutdown`. The engine is created lazily from the first
//! `Hello`'s geometry; the shard count is fixed here on the command
//! line. On graceful shutdown the merged engine run is printed as a
//! one-line summary.

use std::path::PathBuf;
use std::process::ExitCode;

use dewrite_net::{NetServer, ServeOptions};

fn usage() -> ! {
    eprintln!(
        "dewrite-serve: TCP frontend for the sharded dedup engine

USAGE:
    dewrite-serve [OPTIONS]

OPTIONS:
    --addr HOST:PORT     listen address (default 127.0.0.1:7411; port 0 picks one)
    --shards N           controller shards (default 4)
    --threads N          event-loop lanes; 0 = all hardware threads (default 0)
    --window N           per-connection in-flight window (default 64)
    --queue-depth N      sizes the per-shard reorder window (a request may
                         arrive up to 4N-1 sequence numbers early) and
                         pre-sizes the lanes' completion queues (default 1024)
    --persist-dir DIR    crash-consistent metadata persistence root
                         (each engine generation under gen-<n>/shard-<id>/)
    --persist-epoch N    data writes per WAL epoch record (default 64)
    --persist-sync       fsync the WAL on every epoch flush
    --max-lines N        largest line space a Hello may request (default 2^28);
                         also bounds the arena its expected writes size
    -h, --help           this help"
    );
    std::process::exit(2)
}

/// Parse `s` straight into the flag's own type, so an out-of-range value
/// is refused rather than truncated.
fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: '{s}' is not a number in range");
        usage()
    })
}

fn parse(args: &[String]) -> ServeOptions {
    let mut o = ServeOptions::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> String {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("{flag} needs a value");
                    usage()
                })
                .clone()
        };
        match arg.as_str() {
            "--addr" => o.addr = value("--addr"),
            "--shards" => o.shards = parse_num(&value("--shards"), "--shards"),
            "--threads" => o.threads = parse_num(&value("--threads"), "--threads"),
            "--window" => o.window = parse_num(&value("--window"), "--window"),
            "--queue-depth" => o.queue_depth = parse_num(&value("--queue-depth"), "--queue-depth"),
            "--persist-dir" => o.persist_dir = Some(PathBuf::from(value("--persist-dir"))),
            "--persist-epoch" => {
                o.persist_epoch = parse_num(&value("--persist-epoch"), "--persist-epoch")
            }
            "--persist-sync" => o.persist_sync = true,
            "--max-lines" => o.max_lines = parse_num(&value("--max-lines"), "--max-lines"),
            "-h" | "--help" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    if o.shards == 0 || o.shards > 64 {
        eprintln!("--shards must be 1..=64");
        usage()
    }
    if o.window == 0 || o.queue_depth == 0 || o.persist_epoch == 0 {
        eprintln!("--window, --queue-depth, --persist-epoch must be non-zero");
        usage()
    }
    o
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse(&args);
    let shards = opts.shards;
    let server = match NetServer::bind(opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Parsed by scripts (and the CI smoke job) to find the picked port.
    println!("dewrite-serve listening on {}", server.local_addr());
    let outcome = server.join();
    if outcome.aborted {
        eprintln!("aborted");
        return ExitCode::FAILURE;
    }
    match &outcome.run {
        Some(run) => println!(
            "shutdown: {} conns, {} ops over {} shards, dedup_rate {:.4}, {} errors",
            outcome.accepted,
            run.ops,
            shards,
            run.dedup_rate(),
            outcome.errors
        ),
        None => println!(
            "shutdown: {} conns, no engine generation survived to the end, {} errors",
            outcome.accepted, outcome.errors
        ),
    }
    ExitCode::SUCCESS
}
