//! End-to-end tests of the `cogra-run` CLI: schema + CSV stream + query
//! file in, window results out.

mod common;

use common::{Fixture, Raw};
use std::process::Command;

const SCHEMA: &str = "type,attr,kind\n\
                      Measurement,patient,int\n\
                      Measurement,activity,str\n\
                      Measurement,rate,int\n";

const QUERY: &str = "RETURN patient, COUNT(*), MIN(M.rate), MAX(M.rate)\n\
                     PATTERN Measurement M+\n\
                     SEMANTICS contiguous\n\
                     WHERE [patient] AND M.rate < NEXT(M).rate AND M.activity = passive\n\
                     GROUP-BY patient\n\
                     WITHIN 100 SLIDE 100\n";

/// Patient 7: increasing run 60,62,64 (6 trends), an active reading
/// resets, then 61,66 (3 trends) → 9; patient 8: 70,75 → 3.
const STREAM: &str = "type,time,patient,activity,rate\n\
                      Measurement,1,7,passive,60\n\
                      Measurement,3,7,passive,64\n\
                      Measurement,2,7,passive,62\n\
                      Measurement,4,7,active3,90\n\
                      Measurement,5,7,passive,61\n\
                      Measurement,6,7,passive,66\n\
                      Measurement,7,8,passive,70\n\
                      Measurement,8,8,passive,75\n";

/// The fixture every test runs over: the schema, query and stream above.
fn fixture(name: &str) -> Fixture {
    Fixture::new(&format!("cli-{name}"), SCHEMA, QUERY, STREAM.as_bytes())
}

/// `cogra-run serve` over the fixture's schema and query.
fn serve(f: &Fixture) -> Command {
    let mut command = f.cogra_run(Some("serve"));
    command.args(["--query", &f.path("query.cep")]);
    command
}

#[test]
fn q1_over_csv_with_reordering() {
    let f = fixture("reorder");
    let (ok, stdout, stderr) = f.run(&["--slack", "3"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("w0 [7] → 9 60.0000 66.0000"), "{stdout}");
    assert!(stdout.contains("w0 [8] → 3 70.0000 75.0000"), "{stdout}");
}

#[test]
fn disordered_input_rejected_without_slack() {
    let f = fixture("strict");
    let (ok, _, stderr) = f.run(&[]);
    assert!(!ok);
    assert!(stderr.contains("--slack"), "{stderr}");
}

#[test]
fn engines_agree_through_the_cli() {
    let f = fixture("engines");
    let (ok, cogra_out, _) = f.run(&["--slack", "3", "--engine", "cogra"]);
    assert!(ok);
    for engine in ["sase", "oracle"] {
        let (ok, out, stderr) = f.run(&["--slack", "3", "--engine", engine]);
        assert!(ok, "{engine}: {stderr}");
        assert_eq!(out, cogra_out, "{engine} output differs");
    }
}

#[test]
fn unsupported_engine_fails_cleanly() {
    let f = fixture("unsupported");
    // GRETA cannot run a contiguous-semantics query (Table 9).
    let (ok, _, stderr) = f.run(&["--slack", "3", "--engine", "greta"]);
    assert!(!ok);
    assert!(stderr.contains("skip-till-any-match"), "{stderr}");
}

#[test]
fn explain_and_dot_render() {
    let f = fixture("explain");
    let (ok, _, stderr) = f.run(&["--slack", "3", "--explain"]);
    assert!(ok);
    assert!(stderr.contains("granularity: pattern"), "{stderr}");
    // `M.rate < NEXT(M).rate`: of a matched measurement the window keeps
    // its time stamp and its rate.
    assert!(
        stderr.contains("\n  stores: Measurement{rate}\n"),
        "{stderr}"
    );
    // `M.activity = passive` is a local filter: what a measurement binds
    // is decided per event. Under CONT no type is dropped unhashed.
    assert!(
        stderr.contains("\n  route: Measurement → filtered\n"),
        "{stderr}"
    );
    assert!(!stderr.contains("drops:"), "{stderr}");
    let (ok, stdout, _) = f.run(&["--dot"]);
    assert!(ok);
    assert!(stdout.starts_with("digraph pattern {"), "{stdout}");
}

#[test]
fn explain_prints_the_session_fan_out() {
    // A second query over the same `GROUP-BY patient`: one hash of a
    // measurement places it for both queries.
    let f = fixture("fan-out");
    std::fs::write(
        f.dir.join("count.cep"),
        "RETURN patient, COUNT(*) PATTERN Measurement M+ SEMANTICS skip-till-any-match \
         WHERE [patient] GROUP-BY patient WITHIN 100 SLIDE 100\n",
    )
    .unwrap();
    let two = ["--query", &f.path("count.cep"), "--slack", "3", "--explain"];
    let (ok, _, stderr) = f.run(&[&two[..], &["--workers", "2"]].concat());
    assert!(ok, "stderr: {stderr}");
    assert!(
        stderr.contains("fan-out over 2 shard(s):\n  Measurement → by [patient]: q0 q1\n"),
        "{stderr}"
    );
    // One shard hashes nothing: both queries are on it.
    let (ok, _, stderr) = f.run(&two);
    assert!(ok, "stderr: {stderr}");
    assert!(
        stderr.contains("fan-out over 1 shard(s):\n  Measurement → shard 0: q0 q1\n"),
        "{stderr}"
    );
    // A single query's plan is all there is to explain.
    let (ok, _, stderr) = f.run(&["--slack", "3", "--explain"]);
    assert!(ok, "stderr: {stderr}");
    assert!(!stderr.contains("fan-out"), "{stderr}");
}

#[test]
fn workers_report_effective_shard_count() {
    // The fixture query groups by patient, so all requested shards are
    // usable — the summary reports the requested count.
    let f = fixture("workers");
    let (ok, grouped_out, stderr) = f.run(&["--slack", "3", "--workers", "2"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stderr.contains("2 workers"), "{stderr}");
    let (_, sequential_out, _) = f.run(&["--slack", "3"]);
    assert_eq!(
        grouped_out, sequential_out,
        "sharding must not change results"
    );

    // A query with no GROUP-BY cannot shard: requested 4, effective 1.
    let f = fixture("workers-nogroup");
    std::fs::write(
        f.dir.join("query.cep"),
        "RETURN COUNT(*) PATTERN Measurement M+ SEMANTICS skip-till-any-match \
         WITHIN 100 SLIDE 100\n",
    )
    .unwrap();
    let (ok, _, stderr) = f.run(&["--slack", "3", "--workers", "4"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stderr.contains("1 of 4 workers effective"), "{stderr}");
}

#[test]
fn absurd_worker_count_is_a_typed_error_not_an_abort() {
    // 20000 threads is more than the OS grants: spawning them used to
    // panic inside a panic and abort the process (SIGABRT, no exit code).
    let f = fixture("too-wide");
    let out = f
        .cogra_run(None)
        .args(["--events", &f.path("stream.csv")])
        .args(["--query", &f.path("query.cep")])
        .args(["--slack", "3", "--workers", "20000"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "not a normal failure exit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(
        stderr.starts_with("error: 20000 workers requested; at most 1024"),
        "{stderr}"
    );
}

#[test]
fn a_deeply_nested_query_is_a_parse_error_not_an_abort() {
    // 30,000 parentheses used to overflow the main thread's stack in the
    // recursive-descent parser: `fatal runtime error`, SIGABRT, exit 134.
    let f = fixture("deep");
    let depth = 30_000;
    let query = format!(
        "RETURN patient, COUNT(*) PATTERN {}Measurement M+{} WITHIN 100 SLIDE 100\n",
        "(".repeat(depth),
        ")".repeat(depth)
    );
    std::fs::write(f.path("query.cep"), query).unwrap();
    let out = f
        .cogra_run(None)
        .args(["--events", &f.path("stream.csv")])
        .args(["--query", &f.path("query.cep")])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(134), "aborted: {stderr}");
    assert!(!out.status.success(), "{stderr}");
    assert!(out.status.code().is_some(), "killed by a signal: {stderr}");
    assert!(stderr.contains("syntax error at byte"), "{stderr}");
    assert!(stderr.contains("nested more than"), "{stderr}");
}

#[test]
fn serve_and_connect_round_trip() {
    let f = fixture("serve");
    // The reference: the plain run mode over the same inputs.
    let (ok, local_out, stderr) = f.run(&["--slack", "3"]);
    assert!(ok, "stderr: {stderr}");

    // Serve the same session on an ephemeral loopback port...
    let (mut serve, addr) = spawn_serve(&f, "127.0.0.1:0", &[]);

    // ...and replay the recorded stream into it with the connect mode.
    let connect = Command::new(env!("CARGO_BIN_EXE_cogra-run"))
        .arg("connect")
        .args(["--addr", &addr])
        .arg("--events")
        .arg(f.dir.join("stream.csv"))
        .args(["--chunk", "3"])
        .output()
        .expect("connect runs");
    let connect_err = String::from_utf8_lossy(&connect.stderr).into_owned();
    assert!(connect.status.success(), "stderr: {connect_err}");

    // Results are pushed in emission order; the run mode prints them
    // sorted — the sorted line sets must be identical.
    let remote_out = String::from_utf8_lossy(&connect.stdout).into_owned();
    assert_eq!(sort(&remote_out), sort(&local_out), "socket vs in-process");
    assert!(
        connect_err.contains("late event(s) dropped") || !connect_err.contains("reorder"),
        "{connect_err}"
    );

    // FINISH ends the session and the serve process with it.
    let status = serve.wait().expect("serve exits after FINISH");
    assert!(status.success());
}

#[test]
fn serve_refuses_nonlocal_listen() {
    let f = fixture("serve-guard");
    let out = serve(&f)
        .args(["--listen", "0.0.0.0:0"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("non-loopback"), "{stderr}");
}

/// The lines of `s`, sorted.
fn sort(s: &str) -> Vec<&str> {
    let mut lines: Vec<&str> = s.lines().collect();
    lines.sort();
    lines
}

/// Spawn `cogra-run serve --slack 3` over the fixture's schema/query on
/// `listen` ([`listening`]).
fn spawn_serve(f: &Fixture, listen: &str, extra: &[&str]) -> (std::process::Child, String) {
    let mut serve = serve(f);
    serve.args(["--slack", "3", "--listen", listen]).args(extra);
    listening(serve)
}

/// Spawn a `cogra-run serve` command, returning the child and the address
/// it bound (parsed from the `listening on …` handshake line).
fn listening(mut serve: Command) -> (std::process::Child, String) {
    use std::io::BufRead;
    use std::process::Stdio;
    let mut serve = serve
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve starts");
    let mut port_line = String::new();
    std::io::BufReader::new(serve.stdout.take().expect("piped stdout"))
        .read_line(&mut port_line)
        .expect("serve prints its address");
    let addr = port_line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected serve handshake `{port_line}`"))
        .to_string();
    (serve, addr)
}

/// A client that races its server's startup wins with `--retry`: the
/// connect mode is launched against a port nobody listens on yet, and
/// the server arrives only after the first refusals.
#[test]
fn connect_retries_until_the_server_is_up() {
    use std::process::Stdio;

    let f = fixture("retry");
    let (ok, local_out, stderr) = f.run(&["--slack", "3"]);
    assert!(ok, "stderr: {stderr}");

    // Reserve a port the OS considers free, then release it for serve.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    drop(listener);

    let connect = Command::new(env!("CARGO_BIN_EXE_cogra-run"))
        .arg("connect")
        .args(["--addr", &addr])
        .arg("--events")
        .arg(f.dir.join("stream.csv"))
        .args(["--chunk", "3", "--retry", "40", "--backoff-ms", "10"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("connect starts");

    // Let the client eat a few refused dials before the server exists.
    std::thread::sleep(std::time::Duration::from_millis(150));
    let (mut serve, _) = spawn_serve(&f, &addr, &[]);

    let out = connect.wait_with_output().expect("connect finishes");
    let connect_err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "stderr: {connect_err}");
    let remote_out = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(sort(&remote_out), sort(&local_out), "retried run diverged");
    assert!(serve.wait().expect("serve exits after FINISH").success());
}

/// `--read-timeout` disconnects a command connection that goes silent:
/// the server answers with one typed `ERR` line and closes, instead of
/// pinning a thread on a dead client forever.
#[test]
fn serve_read_timeout_disconnects_silent_clients() {
    let f = fixture("read-timeout");
    let (mut serve, addr) = spawn_serve(&f, "127.0.0.1:0", &["--read-timeout", "0.3"]);

    // A silent client: connect, say nothing, wait for the verdict.
    let line = Raw::connect(&addr)
        .reply()
        .expect("server replies before closing");
    assert_eq!(line.trim(), "ERR idle connection timed out", "{line}");

    serve.kill().expect("serve still running");
    let _ = serve.wait();
}

/// SIGTERM is a graceful shutdown: the server drains, snapshots to the
/// `--snapshot-on-term` path and exits zero — and a `--restore` run over
/// the snapshot prints exactly what an uninterrupted run would have.
#[cfg(unix)]
#[test]
fn sigterm_drains_snapshots_and_exits_cleanly() {
    use std::io::Read as _;

    let f = fixture("sigterm");
    let (ok, local_out, stderr) = f.run(&["--slack", "3"]);
    assert!(ok, "stderr: {stderr}");

    let snap = f.dir.join("term.cogra");
    let snap = snap.to_string_lossy().into_owned();
    let (mut serve, addr) = spawn_serve(&f, "127.0.0.1:0", &["--snapshot-on-term", &snap]);

    // Ingest the whole stream over a raw connection — no FINISH, the
    // session must still be live when the signal lands.
    let mut stream = Raw::connect(&addr);
    let reply = stream.ask(format!("INGEST {}\n{STREAM}", STREAM.lines().count()));
    assert!(reply.starts_with("OK "), "{reply}");
    stream.send("QUIT\n");
    drop(stream);

    let term = Command::new("kill")
        .args(["-TERM", &serve.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(term.success());
    let status = serve.wait().expect("serve exits on SIGTERM");
    assert!(status.success(), "SIGTERM exit must be clean");
    let mut serve_err = String::new();
    serve
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut serve_err)
        .unwrap();
    assert!(
        serve_err.contains(&format!("SIGTERM: snapshot → {snap}")),
        "{serve_err}"
    );

    // Nothing was final at the watermark, so the restored session holds
    // every window: a restore + empty tail reprints the whole run.
    std::fs::write(f.dir.join("empty.csv"), "type,time,patient,activity,rate\n").unwrap();
    let out = f
        .cogra_run(None)
        .args(["--events", &f.path("empty.csv"), "--restore", &snap])
        .output()
        .expect("restore runs");
    let restore_err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "stderr: {restore_err}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        local_out,
        "the snapshot lost state"
    );
}

/// A restored session's headline counts the rows of its own run: the late
/// drops before the snapshot stay on the `reorder:` line, which keeps the
/// session's total, and are not taken off this run's rows (a restore over
/// an empty tail used to print a wrapped count).
#[test]
fn a_restore_headline_counts_only_its_own_rows() {
    let f = fixture("restore-late");
    // Two stragglers behind what slack 3 has released by time 8.
    let late = format!("{STREAM}Measurement,2,7,passive,50\nMeasurement,1,8,passive,40\n");
    std::fs::write(f.dir.join("late.csv"), late).unwrap();
    std::fs::write(f.dir.join("empty.csv"), "type,time,patient,activity,rate\n").unwrap();
    let snap = f.path("late.cogra");
    let run = |args: &[&str]| {
        let out = f.cogra_run(None).args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "stderr: {stderr}");
        stderr
    };
    let query = f.path("query.cep");
    let events = f.path("late.csv");
    let prefix = run(&[
        "--events",
        &events,
        "--query",
        &query,
        "--slack",
        "3",
        "--checkpoint",
        &snap,
    ]);
    assert!(prefix.starts_with("8 events →"), "{prefix}");
    assert!(
        prefix.contains("reorder: 2 late event(s) dropped"),
        "{prefix}"
    );
    let restored = run(&["--events", &f.path("empty.csv"), "--restore", &snap]);
    assert!(restored.starts_with("0 events →"), "{restored}");
    assert!(
        restored.contains("reorder: 2 late event(s) dropped"),
        "{restored}"
    );
}

/// The same headline from `connect`: a server resumed from a snapshot that
/// holds two late drops, fed a header-only CSV, ingested none of this
/// feed's rows — the late drops are the session's, on their own line.
#[test]
fn a_connect_headline_counts_only_its_own_rows() {
    let f = fixture("connect-late");
    let late = format!("{STREAM}Measurement,2,7,passive,50\nMeasurement,1,8,passive,40\n");
    std::fs::write(f.dir.join("late.csv"), late).unwrap();
    std::fs::write(f.dir.join("empty.csv"), "type,time,patient,activity,rate\n").unwrap();
    let snap = f.path("late.cogra");
    let events = f.path("late.csv");
    let query = f.path("query.cep");
    let mut prefix = f.cogra_run(None);
    prefix.args(["--events", &events, "--query", &query, "--slack", "3"]);
    let out = prefix.args(["--checkpoint", &snap]).output();
    let out = out.expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");

    let mut serve = f.cogra_run(Some("serve"));
    serve.args(["--restore", &snap, "--listen", "127.0.0.1:0"]);
    let (mut serve, addr) = listening(serve);
    let connect = Command::new(env!("CARGO_BIN_EXE_cogra-run"))
        .args(["connect", "--addr", &addr, "--events", &f.path("empty.csv")])
        .output()
        .expect("connect runs");
    let stderr = String::from_utf8_lossy(&connect.stderr).into_owned();
    assert!(connect.status.success(), "stderr: {stderr}");
    assert!(stderr.starts_with("0 events →"), "{stderr}");
    assert!(
        stderr.contains("reorder: 2 late event(s) dropped"),
        "{stderr}"
    );
    assert!(serve.wait().expect("serve exits after FINISH").success());
}

/// One failure, one message: a snapshot aimed at a missing directory
/// produces byte-identical error text from the CLI's `--checkpoint`
/// (after its `error: ` prefix) and the server's `SNAPSHOT` verb (after
/// its `ERR ` prefix) — both route through the same atomic writer.
#[test]
fn snapshot_error_text_matches_between_cli_and_server() {
    let f = fixture("snap-parity");
    let path = f.dir.join("missing").join("snap.cogra");
    let path = path.to_string_lossy().into_owned();

    let (ok, _, stderr) = f.run(&["--slack", "3", "--checkpoint", &path]);
    assert!(!ok, "a missing directory must fail the checkpoint");
    let cli_text = stderr
        .lines()
        .find_map(|l| l.strip_prefix("error: "))
        .unwrap_or_else(|| panic!("no error line in {stderr}"))
        .to_string();
    assert!(
        cli_text.starts_with(&format!("{path}: i/o error: ")),
        "{cli_text}"
    );

    let (mut serve, addr) = spawn_serve(&f, "127.0.0.1:0", &[]);
    let reply = Raw::connect(&addr).ask(format!("SNAPSHOT {path}\n"));
    let server_text = reply
        .trim()
        .strip_prefix("ERR ")
        .unwrap_or_else(|| panic!("expected ERR, got {reply}"))
        .to_string();
    assert_eq!(server_text, cli_text, "CLI and server error text diverged");

    serve.kill().expect("serve still running");
    let _ = serve.wait();
}

#[test]
fn bad_arguments_report_errors() {
    // Every mode parses its flags through one cursor: the same three
    // complaints, whichever loop met the flag.
    for (args, complaint) in [
        (&["--nonsense"][..], "unknown argument `--nonsense`"),
        (&["--workers", "many"], "--workers needs an integer"),
        (&["--events"], "--events needs a value"),
        (&["serve", "--listen"], "--listen needs a value"),
        (
            &["serve", "--read-timeout", "soon"],
            "--read-timeout needs a number of seconds",
        ),
        (&["connect", "--chunk", "big"], "--chunk needs an integer"),
        (&["connect", "--retry"], "--retry needs a value"),
        (
            &["connect", "--backoff-ms", "-1"],
            "--backoff-ms needs an integer",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_cogra-run"))
            .args(args)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.trim_end(), format!("error: {complaint}"), "{args:?}");
    }
}
