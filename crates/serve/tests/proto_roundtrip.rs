//! Wire-protocol round-trip properties: parse→print→parse is the
//! identity over randomized request and response lines, and malformed
//! input — every possible truncation of a valid line, and seeded token
//! mutants of one — is a structured error, never a panic.

use pe_serve::{
    parse_request, parse_response, ErrorCode, ModelChoice, RejectReason, Request, Response,
    ResultBody, SubmitRequest,
};
use std::panic::catch_unwind;

/// Deterministic xorshift so failures reproduce; no external crates.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn token(&mut self) -> String {
        const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-.:";
        let len = 1 + self.below(24) as usize;
        (0..len)
            .map(|_| CHARS[self.below(CHARS.len() as u64) as usize] as char)
            .collect()
    }
}

fn random_submit(rng: &mut Rng) -> SubmitRequest {
    SubmitRequest {
        id: rng.token(),
        design: rng.token(),
        cycles: rng.next(),
        seed: rng.next(),
        model: if rng.below(2) == 0 {
            ModelChoice::Fast
        } else {
            ModelChoice::Standard
        },
    }
}

fn random_request(rng: &mut Rng) -> Request {
    match rng.below(4) {
        0 => Request::Ping,
        1 => Request::Stats,
        2 => Request::Shutdown,
        _ => Request::Submit(random_submit(rng)),
    }
}

fn random_response(rng: &mut Rng) -> Response {
    match rng.below(7) {
        0 => Response::Accepted {
            req: rng.token(),
            queue_depth: rng.next(),
        },
        1 => Response::Rejected {
            req: rng.token(),
            reason: if rng.below(2) == 0 {
                RejectReason::QueueFull
            } else {
                RejectReason::ShuttingDown
            },
            retry_after_ms: rng.next(),
        },
        2 => Response::Result(ResultBody {
            req: rng.token(),
            design: rng.token(),
            cycles: rng.next(),
            seed: rng.next(),
            batch: rng.next(),
            lane: rng.below(64),
            occupancy: 1 + rng.below(64),
            // Arbitrary bit patterns, including NaNs and infinities —
            // the transport must not care what the f64 means.
            energy_bits: rng.next(),
            cert_bits: rng.next(),
        }),
        3 => Response::Error {
            req: if rng.below(2) == 0 {
                None
            } else {
                // `-` is the wire encoding for "no id"; a literal `-`
                // id would not round-trip, and the server never mints
                // one.
                Some(rng.token()).filter(|t| t != "-").or(Some("x".into()))
            },
            code: match rng.below(6) {
                0 => ErrorCode::Parse,
                1 => ErrorCode::UnknownDesign,
                2 => ErrorCode::CyclesOutOfRange,
                3 => ErrorCode::UnsoundDesign,
                4 => ErrorCode::TapeUnverified,
                _ => ErrorCode::Internal,
            },
            message: format!("{} {} {}", rng.token(), rng.token(), rng.token()),
        },
        4 => Response::Pong,
        5 => Response::Stat {
            name: rng.token(),
            value: rng.token(),
        },
        _ => Response::Bye {
            drained: rng.next(),
        },
    }
}

#[test]
fn requests_round_trip_through_text() {
    let mut rng = Rng(0x9e3779b97f4a7c15);
    for _ in 0..500 {
        let req = random_request(&mut rng);
        let line = req.to_string();
        let reparsed =
            parse_request(&line).unwrap_or_else(|e| panic!("`{line}` failed to reparse: {e}"));
        assert_eq!(reparsed, req, "`{line}`");
        assert_eq!(reparsed.to_string(), line, "printing must be canonical");
    }
}

#[test]
fn responses_round_trip_through_text() {
    let mut rng = Rng(0x6a09e667f3bcc909);
    for _ in 0..500 {
        let resp = random_response(&mut rng);
        let line = resp.to_string();
        let reparsed =
            parse_response(&line).unwrap_or_else(|e| panic!("`{line}` failed to reparse: {e}"));
        assert_eq!(reparsed, resp, "`{line}`");
        assert_eq!(reparsed.to_string(), line, "printing must be canonical");
    }
}

#[test]
fn result_energy_bits_survive_text_for_adversarial_floats() {
    for bits in [
        0u64,
        f64::NAN.to_bits(),
        f64::INFINITY.to_bits(),
        f64::NEG_INFINITY.to_bits(),
        (-0.0f64).to_bits(),
        0.1f64.to_bits(),
        f64::MIN_POSITIVE.to_bits(),
        u64::MAX,
    ] {
        let r = Response::Result(ResultBody {
            req: "r".into(),
            design: "DCT".into(),
            cycles: 1,
            seed: 0,
            batch: 0,
            lane: 0,
            occupancy: 1,
            energy_bits: bits,
            // The certificate rides the same advisory-float + exact-bits
            // encoding, so it must survive the same adversarial values.
            cert_bits: bits ^ u64::MAX,
        });
        let Response::Result(body) = parse_response(&r.to_string()).unwrap() else {
            panic!("not a result");
        };
        assert_eq!(body.energy_bits, bits);
        assert_eq!(body.cert_bits, bits ^ u64::MAX);
    }
}

#[test]
fn every_truncation_of_a_valid_line_is_handled() {
    let mut rng = Rng(0xbb67ae8584caa73b);
    for _ in 0..60 {
        let req_line = random_request(&mut rng).to_string();
        let resp_line = random_response(&mut rng).to_string();
        for (line, what) in [(&req_line, "request"), (&resp_line, "response")] {
            for cut in 0..line.len() {
                if !line.is_char_boundary(cut) {
                    continue;
                }
                let prefix = &line[..cut];
                // Truncation must never panic; when it fails to parse,
                // the error must name the problem.
                let outcome = if what == "request" {
                    parse_request(prefix).map(|_| ()).map_err(|e| e.message)
                } else {
                    parse_response(prefix).map(|_| ()).map_err(|e| e.message)
                };
                if let Err(msg) = outcome {
                    assert!(!msg.is_empty(), "empty error for `{prefix}`");
                }
            }
        }
    }
}

#[test]
fn garbage_lines_are_structured_errors() {
    let mut rng = Rng(0x3c6ef372fe94f82b);
    for _ in 0..200 {
        // Random bytes from the token charset plus separators — enough
        // to hit partial-field shapes without valid lines sneaking in.
        let len = rng.below(60) as usize;
        let garbage: String = (0..len)
            .map(|_| {
                const CHARS: &[u8] = b"abc=XYZ019 _-.:\t";
                CHARS[rng.below(CHARS.len() as u64) as usize] as char
            })
            .collect();
        let _ = parse_request(&garbage);
        let _ = parse_response(&garbage);
    }
}

/// Values a mutant substitutes for a field: empty, zero, a non-number,
/// a negative, 2³², 2⁶⁴ (one past `u64`), and hex that is too long or
/// not hex at all.
const REPLACEMENTS: &[&str] = &[
    "",
    "0",
    "x",
    "-1",
    "4294967296",
    "18446744073709551616",
    "1ffffffffffffffff",
    "0xg",
];

/// One mutant of `line`: one to three edits, each dropping, swapping,
/// or duplicating a token, or replacing a token's value (the part after
/// `=`, or the whole token) with one of [`REPLACEMENTS`].
fn mutate(line: &str, rng: &mut Rng) -> String {
    let mut tokens: Vec<String> = line.split_whitespace().map(str::to_string).collect();
    for _ in 0..1 + rng.below(3) {
        if tokens.is_empty() {
            break;
        }
        let i = rng.below(tokens.len() as u64) as usize;
        match rng.below(4) {
            0 => {
                tokens.remove(i);
            }
            1 => {
                let j = rng.below(tokens.len() as u64) as usize;
                tokens.swap(i, j);
            }
            2 => {
                let dup = tokens[i].clone();
                tokens.insert(i, dup);
            }
            _ => {
                let with = REPLACEMENTS[rng.below(REPLACEMENTS.len() as u64) as usize];
                tokens[i] = match tokens[i].split_once('=') {
                    Some((key, _)) => format!("{key}={with}"),
                    None => with.to_string(),
                };
            }
        }
    }
    tokens.join(" ")
}

#[test]
fn mutated_lines_are_parsed_or_rejected_never_panic() {
    let mut rng = Rng(0xa54ff53a5f1d36f1);
    let (mut parsed, mut rejected) = (0usize, 0usize);
    for _ in 0..2000 {
        let req_line = mutate(&random_request(&mut rng).to_string(), &mut rng);
        let resp_line = mutate(&random_response(&mut rng).to_string(), &mut rng);
        let outcomes = [
            catch_unwind(|| parse_request(&req_line).map(|_| ()))
                .unwrap_or_else(|_| panic!("request mutant `{req_line}` panicked")),
            catch_unwind(|| parse_response(&resp_line).map(|_| ()))
                .unwrap_or_else(|_| panic!("response mutant `{resp_line}` panicked")),
        ];
        for outcome in outcomes {
            match outcome {
                Ok(()) => parsed += 1,
                Err(e) => {
                    assert!(!e.message.is_empty(), "empty error message");
                    rejected += 1;
                }
            }
        }
    }
    // Both paths must run, or the mutator is too weak (or too strong)
    // to say anything.
    assert!(
        parsed > 0 && rejected > 0,
        "{parsed} parsed, {rejected} rejected"
    );
}
