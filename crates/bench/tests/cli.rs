//! Golden tests for the shared bench CLI: generated `--help` text and
//! flag parsing through the same declarations the binaries use.

use ecas_bench::cli::{Cli, CliError};
use ecas_bench::Format;

/// The surface of the `evaluate` binary, redeclared here so the golden
/// help stays covered even if the binary drifts.
fn evaluate_cli() -> Cli {
    Cli::new("evaluate", "run a scenario (JSON) and emit a Markdown report")
        .obs()
        .grid()
        .switch("--print-template", "print a template scenario JSON and exit")
        .optional_positional("scenario", "scenario JSON file (default: the paper evaluation)")
}

#[test]
fn evaluate_help_is_stable() {
    let expected = "\
evaluate — run a scenario (JSON) and emit a Markdown report

usage: evaluate [options] [scenario]

arguments:
  [scenario]   scenario JSON file (default: the paper evaluation)

options:
  --print-template    print a template scenario JSON and exit
  --obs <dir>         write manifest, event JSONL and metrics into <dir>
  --jobs <n>          worker threads for grid execution (default: auto)
  --cache-dir <dir>   serve grid cells from a result cache in <dir>
  -h, --help          show this help and exit
";
    assert_eq!(evaluate_cli().help(), expected);
}

#[test]
fn evaluate_flags_parse() {
    let args = evaluate_cli()
        .parse_from(&["--obs", "out", "--jobs", "2", "--cache-dir", "c", "s.json"])
        .unwrap();
    assert_eq!(args.obs_dir().unwrap().to_str(), Some("out"));
    assert_eq!(args.jobs(), Some(2));
    assert_eq!(args.cache_dir().unwrap().to_str(), Some("c"));
    assert_eq!(args.positionals(), ["s.json"]);
    assert!(!args.switch("--print-template"));
}

#[test]
fn format_precedence_matches_the_old_ad_hoc_loops() {
    let cli = Cli::new("fault_sweep", "sweep").formats().smoke();
    let json = cli.parse_from(&["--json", "--markdown", "--smoke"]).unwrap();
    assert_eq!(json.format(), Format::Json);
    assert!(json.smoke());
    let md = cli.parse_from(&["--markdown"]).unwrap();
    assert_eq!(md.format(), Format::Markdown);
    let text = cli.parse_from::<&str>(&[]).unwrap();
    assert_eq!(text.format(), Format::Text);
}

/// The surface of the `session` binary's subcommands, redeclared here
/// so the golden subcommand help and positional enforcement stay
/// covered even if the binary drifts.
fn session_cli() -> Cli {
    Cli::new("session", "record, replay and verify .ecasr session records")
        .subcommand(
            Cli::new("record", "run a scenario and write a session record")
                .option("--tablev", "id", "use a Table V evaluation trace (1..5)")
                .option("--seconds", "s", "synthetic session duration (default: 60)")
                .positional("out", "output record path (.ecasr)"),
        )
        .subcommand(
            Cli::new("batch-record", "record a fleet into a keyed corpus directory")
                .switch("--tablev", "record the five Table V traces instead of a fleet")
                .option("--users", "n", "fleet size (default: 8)")
                .option("--jobs", "n", "recording workers (default: auto)")
                .option("--batch", "n", "scenarios per pool dispatch (default: 256)")
                .positional("dir", "corpus output directory"),
        )
        .subcommand(
            Cli::new("replay", "reconstruct the result from the stored log alone")
                .positional("record", "record file (.ecasr)"),
        )
        .subcommand(
            Cli::new("verify", "replay each record and diff against its reference")
                .option("--jobs", "n", "verification workers (default: auto)")
                .option("--filter", "substr", "only verify records whose <label> eta=<η> id=<identity> name contains <substr>")
                .positional("path", "record file (.ecasr) or corpus directory")
                .trailing("paths", "further record files or corpus directories"),
        )
        .subcommand(
            Cli::new("inspect", "print a record's scenario, metrics and timeline")
                .switch("--json", "emit the machine-readable manifest instead")
                .positional("record", "record file (.ecasr)"),
        )
        .subcommand(
            Cli::new("rerecord", "re-run a record's scenario and write the fresh record")
                .positional("record", "record file (.ecasr)")
                .positional("out", "output record path (.ecasr)"),
        )
        .subcommand(
            Cli::new("diff", "compare two corpora record-by-record at oracle tolerance")
                .positional("corpus-a", "first corpus directory")
                .positional("corpus-b", "second corpus directory"),
        )
}

#[test]
fn subcommand_parent_help_is_stable() {
    let expected = "\
session — record, replay and verify .ecasr session records

usage: session <command> [options]

commands:
  record         run a scenario and write a session record
  batch-record   record a fleet into a keyed corpus directory
  replay         reconstruct the result from the stored log alone
  verify         replay each record and diff against its reference
  inspect        print a record's scenario, metrics and timeline
  rerecord       re-run a record's scenario and write the fresh record
  diff           compare two corpora record-by-record at oracle tolerance

run `session <command> --help` for command details
";
    assert_eq!(session_cli().help(), expected);
}

/// Every subcommand that takes positionals must turn a missing one into
/// a parse error — handlers can then never reach an out-of-bounds index
/// (the old binaries indexed `positionals()[0]` directly and would
/// panic if a positional was dropped from the declaration).
#[test]
fn missing_positionals_are_usage_errors_in_every_subcommand() {
    let cases: &[(&[&str], &str)] = &[
        (&["record"], "out"),
        (&["batch-record"], "dir"),
        (&["replay"], "record"),
        (&["verify"], "path"),
        (&["inspect"], "record"),
        (&["rerecord"], "record"),
        (&["rerecord", "a.ecasr"], "out"),
        (&["diff"], "corpus-a"),
        (&["diff", "a"], "corpus-b"),
    ];
    for (argv, missing) in cases {
        assert_eq!(
            session_cli().parse_from(argv),
            Err(CliError::MissingPositional(missing)),
            "argv {argv:?} should report <{missing}> as missing"
        );
    }
}

#[test]
fn batch_record_and_verify_flags_parse() {
    let args = session_cli()
        .parse_from(&["batch-record", "--users", "6", "--jobs", "3", "--batch", "2", "corpus"])
        .unwrap();
    let (name, sub) = args.subcommand().unwrap();
    assert_eq!(name, "batch-record");
    assert_eq!(sub.option("--users"), Some("6"));
    assert_eq!(sub.jobs(), Some(3));
    assert_eq!(sub.option("--batch"), Some("2"));
    assert_eq!(sub.positional(0), Some("corpus"));
    assert_eq!(sub.positional(1), None);

    let args = session_cli()
        .parse_from(&["verify", "--jobs", "4", "--filter", "u1-", "corpus", "extra.ecasr"])
        .unwrap();
    let (name, sub) = args.subcommand().unwrap();
    assert_eq!(name, "verify");
    assert_eq!(sub.jobs(), Some(4));
    assert_eq!(sub.option("--filter"), Some("u1-"));
    assert_eq!(sub.positional(0), Some("corpus"));
    assert_eq!(sub.trailing(), ["extra.ecasr"]);

    assert_eq!(
        session_cli().parse_from(&["verify", "--jobs", "0", "x.ecasr"]),
        Err(CliError::InvalidValue {
            flag: "--jobs".to_string(),
            value: "0".to_string(),
            expected: "a worker count of 1 or more",
        })
    );
}

#[test]
fn subcommands_route_and_reject_like_real_tools() {
    let args = session_cli()
        .parse_from(&["verify", "a.ecasr", "b.ecasr", "c.ecasr"])
        .unwrap();
    let (name, sub) = args.subcommand().unwrap();
    assert_eq!(name, "verify");
    assert_eq!(sub.positionals(), ["a.ecasr"]);
    assert_eq!(sub.trailing(), ["b.ecasr", "c.ecasr"]);

    let args = session_cli()
        .parse_from(&["inspect", "--json", "a.ecasr"])
        .unwrap();
    let (name, sub) = args.subcommand().unwrap();
    assert_eq!(name, "inspect");
    assert!(sub.switch("--json"));

    assert_eq!(
        session_cli().parse_from(&["verify", "--json", "a.ecasr"]),
        Err(CliError::UnknownFlag("--json".to_string()))
    );
    assert_eq!(
        session_cli().parse_from(&["nope"]),
        Err(CliError::UnknownSubcommand("nope".to_string()))
    );
    assert_eq!(
        session_cli().parse_from::<&str>(&[]),
        Err(CliError::MissingSubcommand)
    );
}

#[test]
fn unknown_flags_are_rejected_not_ignored() {
    let cli = Cli::new("fig5", "fig").grid();
    assert_eq!(
        cli.parse_from(&["--smoke"]),
        Err(CliError::UnknownFlag("--smoke".to_string()))
    );
    assert_eq!(
        cli.parse_from(&["stray"]),
        Err(CliError::UnexpectedArgument("stray".to_string()))
    );
}
