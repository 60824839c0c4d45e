//! The `iotscope` operator CLI, as a library so commands are testable.
//!
//! Workflow mirrors the paper's operational vision (§VI): produce (or
//! receive) a data directory holding an IoT inventory plus hourly
//! flowtuple files, then run the analyses over it:
//!
//! ```text
//! iotscope simulate --out data/ --tiny          # inventory + 143 hourly files + intel
//! iotscope analyze  --data data/ --intel        # every table & figure
//! iotscope watch    --data data/                # streaming alerts
//! iotscope investigate --data data/ --intel     # §VI/§VII follow-ups
//! ```
//!
//! A data directory contains `inventory.tsv` (see
//! [`iotscope_devicedb::inventory_io`]), `darknet/` (an
//! [`iotscope_net::store::FlowStore`]) and `intel/`, the threat intel
//! every `--intel` verb joins against (see
//! [`iotscope_intel::intel_io`]).

#![forbid(unsafe_code)]

pub mod commands;

use std::error::Error;
use std::fmt;

/// CLI-level errors.
#[derive(Debug)]
#[non_exhaustive]
pub enum CliError {
    /// Bad command line.
    Usage(String),
    /// Anything that went wrong while executing.
    Run(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(s) => write!(f, "usage error: {s}"),
            CliError::Run(s) => write!(f, "{s}"),
        }
    }
}

impl Error for CliError {}

impl From<iotscope_net::NetError> for CliError {
    fn from(e: iotscope_net::NetError) -> Self {
        CliError::Run(format!("store error: {e}"))
    }
}

impl From<iotscope_devicedb::inventory_io::InventoryIoError> for CliError {
    fn from(e: iotscope_devicedb::inventory_io::InventoryIoError) -> Self {
        CliError::Run(format!("inventory error: {e}"))
    }
}

impl From<iotscope_intel::intel_io::IntelIoError> for CliError {
    fn from(e: iotscope_intel::intel_io::IntelIoError) -> Self {
        use iotscope_intel::intel_io::IntelIoError;
        CliError::Run(match e {
            IntelIoError::Missing(_) => format!("intel error: {e} (`iotscope simulate` writes it)"),
            e => format!("intel error: {e}"),
        })
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Run(format!("i/o error: {e}"))
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
iotscope — darknet-based IoT threat analysis (Torabi et al., DSN 2018)

USAGE:
    iotscope simulate --out DIR [--seed N] [--scale F] [--tiny] [--metrics[=FMT]]
    iotscope analyze --data DIR [--intel] [--threads N] [--stats] [--metrics[=FMT]]
    iotscope watch --data DIR [--intel] [--metrics[=FMT]]
    iotscope serve --data DIR [--port N] [--once] [--intel] [--metrics[=FMT]]
    iotscope investigate --data DIR [--intel]
    iotscope migrate --data DIR (--format v3 | --segmented [--hours-per-segment N])
    iotscope export --data DIR --out DIR [--key K]
    iotscope diff --baseline DIR --data DIR [--threads N]
    iotscope validate --data DIR [--threads N]

COMMANDS:
    simulate     build a synthetic inventory + 143 hours of telescope
                 traffic into DIR (inventory.tsv + darknet/), writing
                 the hours on every core, and the threat intel the
                 --intel verbs join against (intel/); --scale is the
                 packet-budget multiplier, a finite number > 0
    analyze      run the full pipeline over DIR and print every table
                 and figure of the paper (--intel adds Section V,
                 joined against DIR/intel;
                 --threads N sizes the store reader pool, --stats
                 appends per-stage read/ingest accounting;
                 --store is accepted as an alias for --data)
    watch        replay DIR hour-by-hour through the near-real-time
                 analyzer, streaming alerts as they fire (--intel adds
                 the incremental threat-intel score stage and its
                 severity-escalation alerts)
    serve        run the resident daemon: ingest DIR's hours while
                 serving concurrent queries over HTTP/JSON (summary,
                 device/{id}, realms, countries, isps, alerts,
                 score/top, score/{id}, metrics, healthz); --port 0
                 picks an ephemeral port, --once exits after ingest
                 instead of serving forever, --intel attaches the
                 threat-intel score stage behind the score endpoints
    investigate  run the follow-up analyses over DIR, decoding each
                 stored hour once: fingerprint unindexed IoT devices and
                 cluster botnets (--intel adds malware attribution
                 against DIR/intel)
    validate     check the pipeline's inference against the simulator's
                 ground-truth ledger (truth.tsv) in DIR
    migrate      --format v3 rewrites DIR/darknet's hour files as v3,
                 the only format written, on every core, upgrading
                 legacy (v1/v2) hours; reads auto-detect the format,
                 so this only standardizes a directory (segments hold
                 only v3: a compacted store has nothing to upgrade).
                 --segmented instead compacts the per-hour files into
                 year-scale segments (darknet/segments/) behind a
                 checksummed manifest, N hours per segment (at least
                 1); analysis output is unchanged either way
    diff         compare two data directories (e.g. yesterday vs today):
                 appeared/disappeared devices, new victims and scanners,
                 per-class packet drift
    export       write a shareable copy of DIR's darknet traffic with
                 prefix-preserving address anonymization (Crypto-PAn
                 style), for the paper's §VI data-sharing vision

Flags take `--flag value` or `--flag=value`. `--metrics[=FMT]` appends
an observability snapshot to the output (FMT: text (default) or json).
";

/// Run the CLI on the given arguments (without the program name).
/// Returns the text to print on success.
///
/// Long-running commands (`watch`, `serve`) buffer here; the binary
/// uses [`run_to`] so their output streams live.
///
/// # Errors
///
/// [`CliError::Usage`] for bad invocations, [`CliError::Run`] otherwise.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::Usage("missing command".to_owned()));
    };
    let rest = &args[1..];
    match command.as_str() {
        "simulate" => commands::simulate(rest),
        "analyze" => commands::analyze(rest),
        "watch" => commands::watch(rest),
        "serve" => {
            let mut buf = Vec::new();
            commands::serve(rest, &mut buf)?;
            Ok(String::from_utf8(buf).expect("serve output is utf-8"))
        }
        "investigate" => commands::investigate(rest),
        "migrate" => commands::migrate(rest),
        "export" => commands::export(rest),
        "diff" => commands::diff(rest),
        "validate" => commands::validate(rest),
        "--help" | "-h" | "help" => Ok(USAGE.to_owned()),
        other => Err(CliError::Usage(format!("unknown command {other:?}"))),
    }
}

/// Run the CLI writing output to `out` as it is produced. `watch` and
/// `serve` stream line by line (a daemon's alert log must be live, not
/// one buffered block at exit); every other command computes its full
/// output and writes it once, identical to [`run`].
///
/// # Errors
///
/// As [`run`]; additionally surfaces write failures on `out`.
pub fn run_to(args: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let Some(command) = args.first() else {
        return Err(CliError::Usage("missing command".to_owned()));
    };
    let rest = &args[1..];
    match command.as_str() {
        "watch" => commands::watch_to(rest, out),
        "serve" => commands::serve(rest, out),
        _ => {
            let output = run(args)?;
            writeln!(out, "{output}")?;
            Ok(())
        }
    }
}

/// Declarative flag parser shared by every command.
///
/// Supports `--flag value` and `--flag=value` for value flags, bare
/// `--flag` for booleans, and `--flag[=value]` for optional-value flags
/// (only the `=` form attaches a value; a bare occurrence maps to `""`).
/// Aliases rewrite alternative spellings to a canonical flag before
/// lookup, so commands only ever query the canonical name. Unknown
/// options are usage errors.
#[derive(Debug, Default)]
pub(crate) struct ArgParser {
    value_flags: Vec<&'static str>,
    bool_flags: Vec<&'static str>,
    optional_flags: Vec<&'static str>,
    aliases: Vec<(&'static str, &'static str)>,
}

impl ArgParser {
    pub(crate) fn new() -> Self {
        ArgParser::default()
    }

    /// A flag that requires a value (`--out DIR` or `--out=DIR`).
    pub(crate) fn value(mut self, flag: &'static str) -> Self {
        self.value_flags.push(flag);
        self
    }

    /// A bare boolean flag (`--tiny`).
    pub(crate) fn boolean(mut self, flag: &'static str) -> Self {
        self.bool_flags.push(flag);
        self
    }

    /// A flag whose value is optional (`--metrics` or `--metrics=json`).
    pub(crate) fn optional_value(mut self, flag: &'static str) -> Self {
        self.optional_flags.push(flag);
        self
    }

    /// Accept `from` as another spelling of `to` (e.g. `--store` for
    /// `--data`).
    pub(crate) fn alias(mut self, from: &'static str, to: &'static str) -> Self {
        self.aliases.push((from, to));
        self
    }

    /// The analysis trio, routed identically wherever an analysis runs:
    /// `--threads N`, `--stats`, `--metrics[=json|text]`.
    pub(crate) fn analysis_flags(self) -> Self {
        self.value("--threads")
            .boolean("--stats")
            .optional_value("--metrics")
    }

    /// Parse `args` against the declared flags.
    pub(crate) fn parse(&self, args: &[String]) -> Result<ParsedArgs, CliError> {
        let mut out = std::collections::BTreeMap::new();
        let mut it = args.iter();
        while let Some(raw) = it.next() {
            let (mut flag, inline) = match raw.split_once('=') {
                Some((f, v)) => (f, Some(v.to_owned())),
                None => (raw.as_str(), None),
            };
            if let Some((_, to)) = self.aliases.iter().find(|(from, _)| *from == flag) {
                flag = to;
            }
            if self.bool_flags.contains(&flag) {
                if inline.is_some() {
                    return Err(CliError::Usage(format!("{flag} takes no value")));
                }
                out.insert(flag.to_owned(), "true".to_owned());
            } else if self.optional_flags.contains(&flag) {
                out.insert(flag.to_owned(), inline.unwrap_or_default());
            } else if self.value_flags.contains(&flag) {
                let v = match inline {
                    Some(v) => v,
                    None => it
                        .next()
                        .cloned()
                        .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))?,
                };
                out.insert(flag.to_owned(), v);
            } else {
                return Err(CliError::Usage(format!("unknown option {raw:?}")));
            }
        }
        Ok(ParsedArgs(out))
    }
}

/// Parsed flags, queried by canonical flag name.
#[derive(Debug)]
pub(crate) struct ParsedArgs(std::collections::BTreeMap<String, String>);

impl ParsedArgs {
    /// The flag's value, if present (`""` for a bare optional-value
    /// flag).
    pub(crate) fn get(&self, flag: &str) -> Option<&str> {
        self.0.get(flag).map(String::as_str)
    }

    /// Whether the flag was given at all.
    pub(crate) fn has(&self, flag: &str) -> bool {
        self.0.contains_key(flag)
    }

    /// A required value flag, with a per-command usage message.
    pub(crate) fn require(&self, flag: &str, command: &str) -> Result<&str, CliError> {
        self.get(flag)
            .ok_or_else(|| CliError::Usage(format!("{command} requires {flag}")))
    }

    /// Parse the flag's value, or return `default` when absent.
    pub(crate) fn parse_or<T: std::str::FromStr>(
        &self,
        flag: &str,
        default: T,
    ) -> Result<T, CliError> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("bad value for {flag}: {v:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_and_unknown_command() {
        assert!(run(&["help".to_owned()]).unwrap().contains("simulate"));
        assert!(matches!(
            run(&["frobnicate".to_owned()]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(run(&[]), Err(CliError::Usage(_))));
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parser_value_and_bool_flags() {
        let p = ArgParser::new().value("--out").boolean("--tiny");
        let opts = p.parse(&args(&["--out", "dir", "--tiny"])).unwrap();
        assert_eq!(opts.get("--out"), Some("dir"));
        assert!(opts.has("--tiny"));
        // --tiny unknown when not declared.
        assert!(ArgParser::new()
            .value("--out")
            .parse(&args(&["--out", "dir", "--tiny"]))
            .is_err());
        // Dangling value flag.
        assert!(p.parse(&args(&["--out"])).is_err());
        // Bool flags reject inline values.
        assert!(p.parse(&args(&["--tiny=yes"])).is_err());
    }

    #[test]
    fn parser_equals_form_and_aliases() {
        let p = ArgParser::new().value("--data").alias("--store", "--data");
        let opts = p.parse(&args(&["--data=d1"])).unwrap();
        assert_eq!(opts.get("--data"), Some("d1"));
        let opts = p.parse(&args(&["--store", "d2"])).unwrap();
        assert_eq!(opts.get("--data"), Some("d2"));
        let opts = p.parse(&args(&["--store=d3"])).unwrap();
        assert_eq!(opts.get("--data"), Some("d3"));
    }

    #[test]
    fn parser_optional_value_flags() {
        let p = ArgParser::new().analysis_flags();
        let opts = p.parse(&args(&["--metrics"])).unwrap();
        assert_eq!(opts.get("--metrics"), Some(""));
        let opts = p
            .parse(&args(&["--metrics=json", "--threads", "4"]))
            .unwrap();
        assert_eq!(opts.get("--metrics"), Some("json"));
        assert_eq!(opts.parse_or("--threads", 1usize).unwrap(), 4);
        assert!(opts.parse_or::<usize>("--threads", 1).is_ok());
        let bad = p.parse(&args(&["--threads", "many"])).unwrap();
        assert!(bad.parse_or::<usize>("--threads", 1).is_err());
    }

    #[test]
    fn parsed_args_require_names_the_command() {
        let p = ArgParser::new().value("--out");
        let opts = p.parse(&[]).unwrap();
        let err = opts.require("--out", "simulate").unwrap_err();
        assert!(format!("{err}").contains("simulate requires --out"));
    }
}
