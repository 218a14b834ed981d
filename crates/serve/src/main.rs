//! `tsg-serve` — concurrent multi-client SpGEMM serving over JSON lines.
//!
//! By default requests are read from stdin and responses written to stdout,
//! one JSON object per line. With `--tcp ADDR` the same protocol is served
//! over TCP, one session per connection, all connections sharing one engine
//! and one weighted-fair scheduler (and therefore one matrix registry, one
//! device budget, and one dispatch order). `--workers` sets how many jobs
//! run at once (default 1); every other job waits in its session's queue. See `tsg_serve::wire` for the
//! protocol's verbs and DESIGN.md §12 for the serving model.
//!
//! ```text
//! tsg-serve [--device 0|1] [--workers N] [--cache-mb N] [--budget-mb N]
//!           [--profile] [--session-depth N] [--drain-ms N] [--tcp ADDR]
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    tsg_serve::server::run(tsg_serve::server::parse_args(std::env::args().skip(1)))
}
