//! A tiny line-oriented query language over a [`KbReader`] — the
//! engine behind the `kf-serve query` REPL, kept as a library function
//! so tests can drive it without a terminal.
//!
//! Commands (ids are the corpus's integer ids; object values are typed
//! tokens — `e12` entity, `s7` interned string, `n3.5` numeric):
//!
//! ```text
//! stats                       KB summary (method, sizes, quality)
//! item <subj> <pred>          belief distribution of one data item
//! top <pred> [k]              top-k triples by calibrated confidence
//! triple <subj> <pred> <obj>  one served row
//! prov <subj> <pred> <obj>    provenance drill-down for a row
//! counters                    serve.* counters of the installed trace
//! metrics                     exposition of the attached live recorder
//! help                        this text
//! quit                        leave the REPL
//! ```

use crate::kb::FusedKb;
use crate::reader::{KbReader, TripleView};
use kf_types::{DataItem, EntityId, Label, Numeric, PredicateId, StrId, Triple, Value};
use std::fmt::Write as _;
use std::io::{BufRead, Write};

/// Result of evaluating one REPL line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplOutput {
    /// Text to print (possibly multi-line, no trailing newline).
    Text(String),
    /// Blank input: print nothing.
    Empty,
    /// `quit` / `exit`.
    Quit,
}

/// Render a value as a typed token (`e12`, `s7`, `n3.5`).
pub fn fmt_value(v: Value) -> String {
    match v {
        Value::Entity(e) => format!("e{}", e.0),
        Value::Str(s) => format!("s{}", s.0),
        Value::Num(n) => format!("n{}", n.to_f64()),
    }
}

/// Parse a typed value token (inverse of [`fmt_value`]).
pub fn parse_value(tok: &str) -> Result<Value, String> {
    let err = || format!("bad value `{tok}` (expected e<id>, s<id> or n<number>)");
    let (kind, rest) = tok.split_at(if tok.is_empty() { 0 } else { 1 });
    match kind {
        "e" => rest
            .parse()
            .map(|id| Value::Entity(EntityId(id)))
            .map_err(|_| err()),
        "s" => rest
            .parse()
            .map(|id| Value::Str(StrId(id)))
            .map_err(|_| err()),
        "n" => rest
            .parse()
            .map(|x| Value::Num(Numeric::from_f64(x)))
            .map_err(|_| err()),
        _ => Err(err()),
    }
}

/// Parse a u32 id, accepting the prefixed form the REPL itself prints
/// (`e93` for a subject, `p4` for a predicate) so output lines can be
/// pasted straight back in.
fn parse_id(tok: &str, what: &str, prefix: char) -> Result<u32, String> {
    tok.strip_prefix(prefix)
        .unwrap_or(tok)
        .parse()
        .map_err(|_| format!("bad {what} id `{tok}`"))
}

fn label_str(l: Label) -> &'static str {
    match l {
        Label::True => "true",
        Label::False => "false",
        Label::Unknown => "unknown",
    }
}

fn fmt_view(v: &TripleView) -> String {
    format!(
        "(e{} p{} {})  cal={:.4} raw={:.4} label={} pages={} extractors={}{}",
        v.triple.subject.0,
        v.triple.predicate.0,
        fmt_value(v.triple.object),
        v.calibrated,
        v.raw,
        label_str(v.label),
        v.n_pages,
        v.n_extractors,
        if v.fallback { " fallback" } else { "" },
    )
}

fn stats_text(kb: &FusedKb) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "method      {} ({})", kb.method, kb.method_label);
    let _ = writeln!(
        s,
        "corpus      scale={} seed={} records={} unique_triples={}",
        kb.corpus.scale, kb.corpus.seed, kb.corpus.n_records, kb.corpus.n_unique_triples
    );
    let _ = writeln!(
        s,
        "served      triples={} items={} predicates={} provenances={} dropped={}",
        kb.n_triples(),
        kb.n_items(),
        kb.n_predicates(),
        kb.n_provenances(),
        kb.n_dropped
    );
    let _ = write!(
        s,
        "quality     wdev={:.5} ece={:.5} auc_pr={:.5}",
        kb.wdev, kb.ece, kb.auc_pr
    );
    s
}

fn counters_text() -> String {
    let Some(trace) = kf_telemetry::current() else {
        return "no trace installed".to_string();
    };
    let report = trace.snapshot();
    let mut rows: Vec<String> = report
        .counters
        .iter()
        .filter(|c| c.name.starts_with("serve."))
        .map(|c| format!("{:<24} {}", c.name, c.value))
        .collect();
    rows.sort();
    if rows.is_empty() {
        "no serve.* counters yet".to_string()
    } else {
        rows.join("\n")
    }
}

fn metrics_text(reader: &KbReader) -> String {
    match reader.metrics() {
        Some(metrics) => {
            let text = metrics.snapshot().render_text();
            text.trim_end().to_string()
        }
        None => "no metrics recorder attached".to_string(),
    }
}

const HELP: &str = "commands:
  stats                       KB summary
  item <subj> <pred>          belief distribution of one data item
  top <pred> [k]              top-k triples by calibrated confidence (default k=10)
  triple <subj> <pred> <obj>  one served row
  prov <subj> <pred> <obj>    provenance drill-down
  counters                    serve.* counters of the installed trace
  metrics                     exposition of the attached live recorder
  help                        this text
  quit                        leave the REPL
values: e<id> entity, s<id> interned string, n<number> numeric";

/// Evaluate one REPL line against a reader. A line it rejects counts as
/// one error on the reader's attached recorder (`kf_serve_errors_total`).
pub fn eval_command(reader: &KbReader, line: &str) -> Result<ReplOutput, String> {
    let result = command(reader, line);
    if let (Err(_), Some(metrics)) = (&result, reader.metrics()) {
        metrics.record_error();
    }
    result
}

fn command(reader: &KbReader, line: &str) -> Result<ReplOutput, String> {
    let mut words = line.split_whitespace();
    let Some(cmd) = words.next() else {
        return Ok(ReplOutput::Empty);
    };
    let args: Vec<&str> = words.collect();
    let arity = |n: usize, usage: &str| -> Result<(), String> {
        if args.len() == n {
            Ok(())
        } else {
            Err(format!("usage: {usage}"))
        }
    };
    match cmd {
        "quit" | "exit" => Ok(ReplOutput::Quit),
        "help" => Ok(ReplOutput::Text(HELP.to_string())),
        "stats" => Ok(ReplOutput::Text(stats_text(reader.kb()))),
        "counters" => Ok(ReplOutput::Text(counters_text())),
        "metrics" => Ok(ReplOutput::Text(metrics_text(reader))),
        "item" => {
            arity(2, "item <subj> <pred>")?;
            let item = DataItem {
                subject: EntityId(parse_id(args[0], "subject", 'e')?),
                predicate: PredicateId(parse_id(args[1], "predicate", 'p')?),
            };
            match reader.belief(item) {
                None => Ok(ReplOutput::Text(format!(
                    "no belief for (e{} p{})",
                    item.subject.0, item.predicate.0
                ))),
                Some(belief) => {
                    let rows: Vec<String> = belief.iter().map(|v| fmt_view(&v)).collect();
                    Ok(ReplOutput::Text(rows.join("\n")))
                }
            }
        }
        "top" => {
            if args.is_empty() || args.len() > 2 {
                return Err("usage: top <pred> [k]".to_string());
            }
            let pred = PredicateId(parse_id(args[0], "predicate", 'p')?);
            let k = match args.get(1) {
                Some(tok) => tok.parse().map_err(|_| format!("bad k `{tok}`"))?,
                None => 10usize,
            };
            match reader.top_k(pred, k) {
                None => Ok(ReplOutput::Text(format!("no triples for p{}", pred.0))),
                Some(top) => {
                    let rows: Vec<String> = top
                        .iter()
                        .enumerate()
                        .map(|(i, v)| format!("{:>3}. {}", i + 1, fmt_view(&v)))
                        .collect();
                    Ok(ReplOutput::Text(rows.join("\n")))
                }
            }
        }
        "triple" | "prov" => {
            arity(3, &format!("{cmd} <subj> <pred> <obj>"))?;
            let triple = Triple {
                subject: EntityId(parse_id(args[0], "subject", 'e')?),
                predicate: PredicateId(parse_id(args[1], "predicate", 'p')?),
                object: parse_value(args[2])?,
            };
            if cmd == "triple" {
                return Ok(ReplOutput::Text(match reader.lookup(&triple) {
                    Some(v) => fmt_view(&v),
                    None => "not served".to_string(),
                }));
            }
            match reader.drilldown(&triple) {
                None => Ok(ReplOutput::Text("not served".to_string())),
                Some(d) => {
                    let mut s = fmt_view(&d.view());
                    match d.mean_accuracy() {
                        Some(mean) => {
                            let _ = write!(
                                s,
                                "\nsupport: {} provenances, mean accuracy {:.4}",
                                d.len(),
                                mean
                            );
                        }
                        None => {
                            let _ = write!(s, "\nsupport: no attribution recorded");
                        }
                    }
                    for p in d.iter() {
                        let _ = write!(s, "\n  prov {}", p.id);
                        if let Some(ext) = p.key.extractor {
                            let name = reader.extractor_name(ext.0 as u32).unwrap_or("?");
                            let _ = write!(s, " ext=e{}({name})", ext.0);
                        }
                        if let Some(site) = p.key.site {
                            let _ = write!(s, " site={}", site.0);
                        }
                        if let Some(page) = p.key.page {
                            let _ = write!(s, " page={}", page.0);
                        }
                        if let Some(pred) = p.key.predicate {
                            let _ = write!(s, " pred={}", pred.0);
                        }
                        // Pattern-free extractions carry the NONE sentinel,
                        // not an absent field — render them as such.
                        if let Some(pat) = p.key.pattern.filter(|p| !p.is_none()) {
                            let _ = write!(s, " pattern={}", pat.0);
                        }
                        let _ = write!(
                            s,
                            " accuracy={:.4}{}",
                            p.accuracy,
                            if p.evaluated { "" } else { " (prior)" }
                        );
                    }
                    Ok(ReplOutput::Text(s))
                }
            }
        }
        other => Err(format!("unknown command `{other}` (try `help`)")),
    }
}

/// Drive the REPL over arbitrary input/output streams until EOF or
/// `quit`. Prompts with `kf> ` when `prompt` is set (interactive use).
pub fn run_repl(
    reader: &KbReader,
    input: impl BufRead,
    mut out: impl Write,
    prompt: bool,
) -> std::io::Result<()> {
    if prompt {
        write!(out, "kf> ")?;
        out.flush()?;
    }
    for line in input.lines() {
        let line = line?;
        match eval_command(reader, &line) {
            Ok(ReplOutput::Quit) => break,
            Ok(ReplOutput::Empty) => {}
            Ok(ReplOutput::Text(text)) => writeln!(out, "{text}")?,
            Err(e) => writeln!(out, "error: {e}")?,
        }
        if prompt {
            write!(out, "kf> ")?;
            out.flush()?;
        }
    }
    Ok(())
}
