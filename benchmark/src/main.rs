//! click-spine command line. See `README.md` beside the manifest.

use click_spine::alloc::Counting;
use click_spine::cli;

#[global_allocator]
static GLOBAL: Counting = Counting;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(cli::main(&args));
}
