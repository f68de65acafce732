//! Known answers for the JSONL trace schema (`results/traces/README.md`).
//!
//! A fixed, adversarial set of ring records — names that need escaping,
//! every `TelemetryValue` variant at its edges, spans and events, traced
//! and untraced — is rendered line by line, as a `trace_dump` document
//! and as a merged trace, and each output is pinned byte for byte. The
//! round trip checks that the reader and the writer agree: a rendered
//! line parsed back and rendered again is the same bytes, and a
//! rendered document parses back into exactly the records, implicated
//! nodes and overflow counts it was rendered from.

use deta_obs::{merge, parse_jsonl, render_jsonl, ObsRecord, ProcessTrace};
use deta_obs::{trace_dump, unique_stem, TelemetryRecord, TelemetryValue};
use deta_proptest::{cases, Gen};

/// The one rendering call every known answer goes through.
fn line(node: &str, rec: &TelemetryRecord) -> String {
    rec.to_obs(node).to_json()
}

/// Whether [`record`] builds a span (with a duration) or an event.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Span,
    Event,
}

fn record(
    t_ns: u64,
    kind: Kind,
    name: &'static str,
    trace: (u64, u64),
    fields: Vec<(&'static str, TelemetryValue)>,
) -> TelemetryRecord {
    TelemetryRecord {
        t_ns,
        name,
        dur_ns: (kind == Kind::Span).then_some(t_ns / 2),
        trace_id: trace.0,
        parent: trace.1,
        fields,
    }
}

/// Two nodes' rings: node names and record names that need escaping,
/// every value variant at its edges, spans and events, `trace_id` and
/// `parent` zero and non-zero, and timestamps that tie across nodes.
fn rings() -> Vec<(String, Vec<TelemetryRecord>)> {
    use Kind::{Event, Span};
    use TelemetryValue::{Bool, Str, F64, I64, U64};
    let first = vec![
        record(0, Event, "upload", (0, 0), vec![]),
        record(
            40,
            Span,
            "q\"uote\\slash",
            (1, 0),
            vec![("yes", Bool(true)), ("no", Bool(false))],
        ),
        record(
            40,
            Event,
            "ctl\u{0}\u{8}\u{c}\t\r\n\u{1b}\u{1f}\u{7f}",
            (0, 7),
            vec![("k\"\\\n", U64(0))],
        ),
        record(
            90,
            Event,
            "net_send",
            (3, 1_099_511_627_777),
            vec![
                ("msg_id", U64((1 << 53) + 1)),
                ("max", U64(u64::MAX)),
                ("min", I64(i64::MIN)),
                ("neg", I64(-1)),
                ("zero", I64(0)),
            ],
        ),
    ];
    let second = vec![
        record(
            40,
            Span,
            "ünïcødé ✓ 🦀",
            (u64::MAX, (1 << 53) + 1),
            vec![
                ("nan", F64(f64::NAN)),
                ("inf", F64(f64::INFINITY)),
                ("-inf", F64(f64::NEG_INFINITY)),
                ("neg_zero", F64(-0.0)),
                ("subnormal", F64(f64::from_bits(1))),
                ("tenth", F64(0.1)),
                ("big", F64(1e21)),
                ("small", F64(-1.5e-7)),
            ],
        ),
        record(
            120,
            Event,
            "net_recv",
            (3, 9),
            vec![
                ("msg_id", U64((1 << 53) + 1)),
                ("empty", Str(String::new())),
                ("controls", Str("tab\there\u{0}\u{1f}\"\\/".to_string())),
                ("text", Str("ünï ✓ 🦀".to_string())),
            ],
        ),
        record(7, Event, "", (0, 0), vec![]),
    ];
    vec![
        ("agg \"1\"\\\u{7}".to_string(), first),
        ("pärty-✓\n".to_string(), second),
    ]
}

/// The known answers are raw text with two stand-ins: `{SUB}` for the
/// subnormal's 325-digit decimal (`{}` of `f64::from_bits(1)`), `{DEL}`
/// for U+007F, which JSON leaves unescaped.
fn pinned(raw: &str) -> String {
    let subnormal = format!("0.{}5", "0".repeat(323));
    raw.replace("{SUB}", &subnormal).replace("{DEL}", "\u{7f}")
}

const LINES: &str = r#"{"t_ns":0,"node":"agg \"1\"\\\u0007","kind":"event","name":"upload"}
{"t_ns":40,"node":"agg \"1\"\\\u0007","kind":"span","name":"q\"uote\\slash","dur_ns":20,"trace_id":1,"fields":{"yes":true,"no":false}}
{"t_ns":40,"node":"agg \"1\"\\\u0007","kind":"event","name":"ctl\u0000\u0008\u000c\t\r\n\u001b\u001f{DEL}","fields":{"k\"\\\n":0}}
{"t_ns":90,"node":"agg \"1\"\\\u0007","kind":"event","name":"net_send","trace_id":3,"parent":1099511627777,"fields":{"msg_id":9007199254740993,"max":18446744073709551615,"min":-9223372036854775808,"neg":-1,"zero":0}}
{"t_ns":40,"node":"pärty-✓\n","kind":"span","name":"ünïcødé ✓ 🦀","dur_ns":20,"trace_id":18446744073709551615,"parent":9007199254740993,"fields":{"nan":null,"inf":null,"-inf":null,"neg_zero":-0,"subnormal":{SUB},"tenth":0.1,"big":1000000000000000000000,"small":-0.00000015}}
{"t_ns":120,"node":"pärty-✓\n","kind":"event","name":"net_recv","trace_id":3,"parent":9,"fields":{"msg_id":9007199254740993,"empty":"","controls":"tab\there\u0000\u001f\"\\/","text":"ünï ✓ 🦀"}}
{"t_ns":7,"node":"pärty-✓\n","kind":"event","name":""}
"#;

#[test]
fn ring_records_render_the_pinned_lines() {
    let rendered: String = (rings().iter())
        .flat_map(|(node, recs)| recs.iter().map(move |r| line(node, r) + "\n"))
        .collect();
    assert_eq!(rendered, pinned(LINES));
}

const DUMP: &str = r#"{"t_ns":0,"node":"agg \"1\"\\\u0007","kind":"event","name":"upload"}
{"t_ns":7,"node":"pärty-✓\n","kind":"event","name":""}
{"t_ns":40,"node":"agg \"1\"\\\u0007","kind":"span","name":"q\"uote\\slash","dur_ns":20,"trace_id":1,"fields":{"yes":true,"no":false}}
{"t_ns":40,"node":"agg \"1\"\\\u0007","kind":"event","name":"ctl\u0000\u0008\u000c\t\r\n\u001b\u001f{DEL}","fields":{"k\"\\\n":0}}
{"t_ns":40,"node":"pärty-✓\n","kind":"span","name":"ünïcødé ✓ 🦀","dur_ns":20,"trace_id":18446744073709551615,"parent":9007199254740993,"fields":{"nan":null,"inf":null,"-inf":null,"neg_zero":-0,"subnormal":{SUB},"tenth":0.1,"big":1000000000000000000000,"small":-0.00000015}}
{"t_ns":90,"node":"agg \"1\"\\\u0007","kind":"event","name":"net_send","trace_id":3,"parent":1099511627777,"fields":{"msg_id":9007199254740993,"max":18446744073709551615,"min":-9223372036854775808,"neg":-1,"zero":0}}
{"t_ns":120,"node":"pärty-✓\n","kind":"event","name":"net_recv","trace_id":3,"parent":9,"fields":{"msg_id":9007199254740993,"empty":"","controls":"tab\there\u0000\u001f\"\\/","text":"ünï ✓ 🦀"}}
{"t_ns":T,"kind":"meta","implicated":["pärty-✓\n","agg \"1\"\\\u0007"],"ring_overflow":{"agg \"1\"\\\u0007":0,"pärty-✓\n":12}}
"#;

#[test]
fn trace_dump_writes_the_pinned_document() {
    let dir = std::env::temp_dir().join(format!("deta-obs-schema-{}", std::process::id()));
    let nodes: Vec<(String, Vec<TelemetryRecord>, u64)> = (rings().into_iter())
        .zip([0, 12])
        .map(|((node, recs), dropped)| (node, recs, dropped))
        .collect();
    let implicated = ["pärty-✓\n".to_string(), "agg \"1\"\\\u{7}".to_string()];
    let dump = trace_dump(&dir, &unique_stem("schema"), &nodes, &implicated).expect("dump writes");
    let text = std::fs::read_to_string(&dump.jsonl).expect("dump readable");
    let _ = std::fs::remove_dir_all(&dir);
    let mut records: Vec<ObsRecord> = (nodes.iter())
        .flat_map(|(node, recs, _)| recs.iter().map(|r| r.to_obs(node)))
        .collect();
    records.sort_by_key(|r| r.t_ns);
    let parsed = parse_jsonl(&text);
    assert_eq!(parsed.records, records);
    assert_eq!(parsed.implicated, implicated);
    let overflow: Vec<(String, u64)> = (nodes.iter())
        .map(|(node, _, dropped)| (node.clone(), *dropped))
        .collect();
    assert_eq!(parsed.overflow, overflow);
    // The meta line's timestamp is the clock at dump time: mask it.
    let (timeline, meta) = text.trim_end().rsplit_once('\n').expect("a meta line");
    let after = meta
        .strip_prefix("{\"t_ns\":")
        .expect("meta starts with t_ns");
    let after = after.trim_start_matches(|c: char| c.is_ascii_digit());
    assert_eq!(format!("{timeline}\n{{\"t_ns\":T{after}\n"), pinned(DUMP));
}

const MERGED: &str = r#"{"t_ns":0,"node":"pärty-✓\n","kind":"event","name":""}
{"t_ns":23,"node":"agg \"1\"\\\u0007","kind":"event","name":"upload"}
{"t_ns":33,"node":"pärty-✓\n","kind":"span","name":"ünïcødé ✓ 🦀","dur_ns":20,"trace_id":18446744073709551615,"parent":9007199254740993,"fields":{"nan":null,"inf":null,"-inf":null,"neg_zero":-0,"subnormal":{SUB},"tenth":0.1,"big":1000000000000000000000,"small":-0.00000015}}
{"t_ns":63,"node":"agg \"1\"\\\u0007","kind":"span","name":"q\"uote\\slash","dur_ns":20,"trace_id":1,"fields":{"yes":true,"no":false}}
{"t_ns":63,"node":"agg \"1\"\\\u0007","kind":"event","name":"ctl\u0000\u0008\u000c\t\r\n\u001b\u001f{DEL}","fields":{"k\"\\\n":0}}
{"t_ns":113,"node":"agg \"1\"\\\u0007","kind":"event","name":"net_send","trace_id":3,"parent":1099511627777,"fields":{"msg_id":9007199254740993,"max":18446744073709551615,"min":-9223372036854775808,"neg":-1,"zero":0}}
{"t_ns":113,"node":"pärty-✓\n","kind":"event","name":"net_recv","trace_id":3,"parent":9,"fields":{"msg_id":9007199254740993,"empty":"","controls":"tab\there\u0000\u001f\"\\/","text":"ünï ✓ 🦀"}}
{"t_ns":113,"kind":"meta","implicated":["agg \"1\"\\\u0007"],"ring_overflow":{"pärty-✓\n":3,"\u0000":0}}
"#;

#[test]
fn merged_trace_renders_the_pinned_document() {
    let procs: Vec<ProcessTrace> = (rings().iter().enumerate())
        .map(|(i, (node, recs))| {
            let text: String = recs.iter().map(|r| line(node, r) + "\n").collect();
            ProcessTrace {
                label: node.clone(),
                offset_ns: 50 * i as i64,
                records: parse_jsonl(&text).records,
            }
        })
        .collect();
    let merged = merge(procs);
    let implicated = ["agg \"1\"\\\u{7}".to_string()];
    let overflow = [("pärty-✓\n".to_string(), 3), ("\u{0}".to_string(), 0)];
    assert_eq!(merged.to_jsonl(&implicated, &overflow), pinned(MERGED));
}

/// Characters that need escaping, and some that need none.
const ALPHABET: &str = "a-_ \"\\/\n\r\t\u{0}\u{8}\u{c}\u{1f}\u{7f}é✓🦀";

const NAMES: [&str; 4] = ["net_send", "q\"uote\\slash", "ctl\u{1}\n", "ünïcødé ✓ 🦀"];

fn arbitrary_value(g: &mut Gen) -> TelemetryValue {
    let edge = [0, 1, (1 << 53) + 1, u64::MAX, i64::MIN as u64];
    match g.usize_in(0, 6) {
        0 => TelemetryValue::Bool(g.bool()),
        1 => TelemetryValue::U64(if g.bool() {
            g.u64()
        } else {
            edge[g.usize_in(0, 5)]
        }),
        2 => TelemetryValue::I64(if g.bool() {
            g.u64()
        } else {
            edge[g.usize_in(0, 5)]
        } as i64),
        3 => TelemetryValue::F64(f64::from_bits(g.u64())),
        4 => {
            let special = [
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                -0.0,
                1e-310,
                1e21,
            ];
            TelemetryValue::F64(special[g.usize_in(0, special.len())])
        }
        _ => TelemetryValue::Str(g.string_of(ALPHABET, 0, 12)),
    }
}

#[test]
fn rendered_lines_parse_back_and_render_the_same_bytes() {
    let fixed = rings().into_iter().flat_map(|(node, recs)| {
        recs.into_iter()
            .map(move |r| line(&node, &r))
            .collect::<Vec<_>>()
    });
    let mut lines: Vec<String> = fixed.collect();
    let mut obs: Vec<ObsRecord> = (rings().into_iter())
        .flat_map(|(node, recs)| recs.iter().map(|r| r.to_obs(&node)).collect::<Vec<_>>())
        .collect();
    cases("schema lines round-trip", 256, |g: &mut Gen| {
        let kind = if g.bool() { Kind::Span } else { Kind::Event };
        let zero_or = |g: &mut Gen| if g.bool() { 0 } else { g.u64() };
        let rec = TelemetryRecord {
            t_ns: g.u64_in(0, i64::MAX as u64),
            name: NAMES[g.usize_in(0, NAMES.len())],
            dur_ns: (kind == Kind::Span).then(|| g.u64()),
            trace_id: zero_or(g),
            parent: zero_or(g),
            fields: g.vec_of(0, 5, |g| {
                (NAMES[g.usize_in(0, NAMES.len())], arbitrary_value(g))
            }),
        };
        let node = g.string_of(ALPHABET, 0, 12);
        lines.push(line(&node, &rec));
        obs.push(rec.to_obs(&node));
    });
    assert_eq!(parse_jsonl(&render_jsonl(&obs)).records, obs);
    for l in &lines {
        let parsed = parse_jsonl(l);
        assert_eq!((parsed.records.len(), parsed.skipped), (1, 0), "{l}");
        assert_eq!(&parsed.records[0].to_json(), l);
    }
}
