//! `iotscope` binary entry point; all logic lives in the library so the
//! commands are testable.

#![forbid(unsafe_code)]

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // run_to streams watch/serve output live; buffered commands write
    // once. Broken pipes (e.g. `iotscope analyze | head`) surface as
    // Run errors, which exit 1 like any other runtime failure.
    match iotscope_cli::run_to(&args, &mut std::io::stdout()) {
        Ok(()) => {}
        Err(iotscope_cli::CliError::Usage(msg)) => {
            eprintln!("error: {msg}\n\n{}", iotscope_cli::USAGE);
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
