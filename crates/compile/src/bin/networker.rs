//! `networker` — one rank of the socket backend's multi-process replay.
//!
//! Not meant to be invoked by hand: the parent driver
//! (`hpf_compile::netrun::socket_validate_replay`, reachable via
//! `phpfc --backend socket`) spawns one of these per virtual processor
//! with the rendezvous socket path and rank in the environment.

use std::process::ExitCode;

fn main() -> ExitCode {
    match hpf_compile::netrun::worker_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("networker: {}", e);
            ExitCode::FAILURE
        }
    }
}
