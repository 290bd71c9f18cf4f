//! VCD ingestion: parse the simulator's dump back into a signal trace.
//!
//! Reads the subset of IEEE 1364 VCD the workspace emits
//! (`ifsyn_sim::vcd`): one scope of `wire` variables, scalar `0c`/`1c`
//! changes and `b<bits> <code>` vector changes under `#time` markers.
//! Unknown header commands are skipped, and `x`/`z` scalar states are
//! read as `0`, so dumps from other tools in the same shape also load.
//!
//! The result re-uses the simulator's [`TraceEvent`] with synthetic
//! [`SignalId`]s indexing the parsed variable table — exactly the shape
//! the bus analyzer behind [`crate::analyze_report`] and
//! `ifsyn_sim::analysis::handshake_words` consume, making VCD-on-disk
//! and in-memory traces interchangeable.

use std::collections::HashMap;

use ifsyn_sim::TraceEvent;
use ifsyn_spec::{BitVec, SignalId, Value};

use crate::error::AnalyzeError;

/// One `$var` declaration from the VCD header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VcdVar {
    /// Declared signal name (without the `[msb:0]` range suffix).
    pub name: String,
    /// Declared width in bits.
    pub width: u32,
    /// The identifier code changes are keyed by.
    pub code: String,
}

/// A parsed VCD document.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedVcd {
    /// Declared variables; a variable's index is its [`SignalId`] in
    /// `initials` and `events`.
    pub vars: Vec<VcdVar>,
    /// Initial value per variable (from `$dumpvars`), in `vars` order.
    pub initials: Vec<Value>,
    /// Value changes in file order, with times from `#` markers.
    pub events: Vec<TraceEvent>,
    /// The last `#time` marker in the file.
    pub end_time: u64,
}

impl ParsedVcd {
    /// Index of the variable declared with `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.vars.iter().position(|v| v.name == name)
    }

    /// The synthetic [`SignalId`] of the variable declared with `name`.
    pub fn signal(&self, name: &str) -> Option<SignalId> {
        self.index_of(name).map(|i| SignalId::new(i as u32))
    }
}

/// Parses VCD text.
///
/// # Errors
///
/// Returns [`AnalyzeError::Vcd`] on unknown identifier codes, malformed
/// vector values, or times that run backwards.
pub fn parse_vcd(text: &str) -> Result<ParsedVcd, AnalyzeError> {
    let mut vars: Vec<VcdVar> = Vec::new();
    let mut by_code: HashMap<String, usize> = HashMap::new();
    let mut initials: Vec<Option<Value>> = Vec::new();
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut time: Option<u64> = None;
    let mut end_time = 0u64;
    let err = |line: usize, message: String| AnalyzeError::Vcd { line, message };

    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line == "$end" || line == "$dumpvars" {
            continue;
        }
        if let Some(rest) = line.strip_prefix('$') {
            if rest.starts_with("var") {
                let tokens: Vec<&str> = line.split_whitespace().collect();
                // $var wire <width> <code> <name> [range] $end
                if tokens.len() < 5 {
                    return Err(err(lineno, "malformed $var declaration".into()));
                }
                let width: u32 = tokens[2]
                    .parse()
                    .map_err(|_| err(lineno, format!("bad $var width `{}`", tokens[2])))?;
                let code = tokens[3].to_string();
                if by_code.contains_key(&code) {
                    return Err(err(lineno, format!("duplicate identifier code `{code}`")));
                }
                by_code.insert(code.clone(), vars.len());
                vars.push(VcdVar {
                    name: tokens[4].to_string(),
                    width,
                    code,
                });
                initials.push(None);
            }
            // Other $-commands ($comment, $timescale, $scope, ...) carry
            // nothing the analyzer needs.
            continue;
        }
        if let Some(t) = line.strip_prefix('#') {
            let t: u64 = t
                .parse()
                .map_err(|_| err(lineno, format!("bad time marker `{line}`")))?;
            if t < end_time {
                return Err(err(
                    lineno,
                    format!("time runs backwards: #{t} after #{end_time}"),
                ));
            }
            time = Some(t);
            end_time = t;
            continue;
        }
        let (value, code) = if let Some(rest) = line.strip_prefix('b') {
            // Vector: b<MSB-first bits> <code>
            let (bits, code) = rest
                .split_once(' ')
                .ok_or_else(|| err(lineno, "vector change without identifier".into()))?;
            let value = Value::Bits(BitVec::from_bits_lsb_first(
                bits.chars().rev().map(|c| c == '1'),
            ));
            (value, code.trim())
        } else {
            // Scalar: <state><code>, state in 01xzXZ.
            let mut chars = line.chars();
            let state = chars.next().unwrap_or('0');
            if !matches!(state, '0' | '1' | 'x' | 'z' | 'X' | 'Z') {
                return Err(err(lineno, format!("unrecognised change `{line}`")));
            }
            (Value::Bit(state == '1'), chars.as_str())
        };
        let &index = by_code
            .get(code)
            .ok_or_else(|| err(lineno, format!("unknown identifier code `{code}`")))?;
        match time {
            // Before the first #time marker: this is the initial dump.
            None => initials[index] = Some(value),
            Some(t) => events.push(TraceEvent {
                time: t,
                signal: SignalId::new(index as u32),
                value,
            }),
        }
    }

    let initials = initials
        .into_iter()
        .enumerate()
        .map(|(i, v)| {
            v.map(Ok).unwrap_or_else(|| {
                // A well-formed dump initialises everything; default to
                // zero of the declared width for partial dumps.
                let var = &vars[i];
                Ok(if var.width == 1 {
                    Value::Bit(false)
                } else {
                    Value::Bits(BitVec::from_u64(0, var.width))
                })
            })
        })
        .collect::<Result<Vec<_>, AnalyzeError>>()?;

    Ok(ParsedVcd {
        vars,
        initials,
        events,
        end_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
$comment interface-synthesis simulation of t $end
$timescale 1ns $end
$scope module top $end
$var wire 1 ! REQ $end
$var wire 8 \" DATA [7:0] $end
$upscope $end
$enddefinitions $end
$dumpvars
0!
b00000000 \"
$end
#1
b10100101 \"
#2
1!
#4
0!
";

    #[test]
    fn parses_vars_initials_and_events() {
        let vcd = parse_vcd(SAMPLE).unwrap();
        assert_eq!(vcd.vars.len(), 2);
        assert_eq!(vcd.vars[0].name, "REQ");
        assert_eq!(vcd.vars[1].width, 8);
        assert_eq!(vcd.initials[0], Value::Bit(false));
        assert_eq!(vcd.initials[1], Value::Bits(BitVec::from_u64(0, 8)));
        assert_eq!(vcd.events.len(), 3);
        assert_eq!(vcd.events[0].time, 1);
        assert_eq!(vcd.events[0].value, Value::Bits(BitVec::from_u64(0xa5, 8)));
        assert_eq!(
            vcd.events[1],
            TraceEvent {
                time: 2,
                signal: SignalId::new(0),
                value: Value::Bit(true),
            }
        );
        assert_eq!(vcd.end_time, 4);
        assert_eq!(vcd.signal("DATA"), Some(SignalId::new(1)));
        assert_eq!(vcd.signal("NOPE"), None);
    }

    #[test]
    fn rejects_backwards_time_and_unknown_codes() {
        assert!(matches!(
            parse_vcd("#5\n#3\n"),
            Err(AnalyzeError::Vcd { line: 2, .. })
        ));
        assert!(matches!(
            parse_vcd("$var wire 1 ! A $end\n#1\n1?\n"),
            Err(AnalyzeError::Vcd { line: 3, .. })
        ));
    }

    #[test]
    fn duplicate_codes_are_rejected() {
        let text = "$var wire 1 ! A $end\n$var wire 1 ! B $end\n";
        assert!(matches!(
            parse_vcd(text),
            Err(AnalyzeError::Vcd { line: 2, .. })
        ));
    }

    #[test]
    fn x_and_z_states_read_as_low() {
        let vcd = parse_vcd("$var wire 1 ! A $end\n#1\nx!\n#2\nz!\n").unwrap();
        assert!(vcd.events.iter().all(|e| e.value == Value::Bit(false)));
    }
}
