//! Seeded jitter of spec text and of built systems' initial values.
//!
//! Every integer literal that is a `compute` duration or part of a `var`
//! initialiser moves by up to a quarter of its value, rounded up to a
//! whole unit, and never below 1. Durations change timing; initialisers
//! change data the specs never branch on. Either way the spec keeps its
//! shape: the same statements, the same channels, the same widths to
//! explore. Comments and string literals are copied untouched.
//! [`jitter_init`] applies the same rule to one variable's initial value
//! in a system built in code.

use ifsyn_spec::rng::SplitMix64;
use ifsyn_spec::{System, Value};

/// `text` with its `compute` durations and `var` initialisers jittered.
pub fn jitter(text: &str, rng: &mut SplitMix64) -> String {
    let b = text.as_bytes();
    let mut out = String::with_capacity(text.len() + 16);
    let mut i = 0;
    // The next literal is a `compute` duration.
    let mut duration = false;
    // Inside a `var` declaration, and past its `=`.
    let mut in_var = false;
    let mut in_init = false;
    while i < b.len() {
        let c = b[i];
        let start = i;
        if text[i..].starts_with("--") {
            i = text[i..].find('\n').map_or(b.len(), |n| i + n);
        } else if c == b'"' {
            i = text[i + 1..].find('"').map_or(b.len(), |n| i + n + 2);
        } else if c.is_ascii_alphabetic() || c == b'_' {
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            let word = &text[start..i];
            duration = word == "compute";
            if word == "var" {
                in_var = true;
                in_init = false;
            }
        } else if c.is_ascii_digit() {
            while i < b.len() && b[i].is_ascii_digit() {
                i += 1;
            }
            let lit = &text[start..i];
            match lit.parse::<u64>() {
                Ok(n) if duration || in_init => out.push_str(&move_by_quarter(n, rng).to_string()),
                _ => out.push_str(lit),
            }
            duration = false;
            continue;
        } else {
            i += 1;
            match c {
                b'=' if in_var => in_init = true,
                b';' => (in_var, in_init) = (false, false),
                _ => {}
            }
            if !c.is_ascii_whitespace() {
                duration = false;
            }
        }
        out.push_str(&text[start..i]);
    }
    out
}

/// `n` moved uniformly within `n ± ceil(n / 4)`, kept at least 1; 0 stays.
fn move_by_quarter(n: u64, rng: &mut SplitMix64) -> u64 {
    if n == 0 {
        return 0;
    }
    let d = n.div_ceil(4);
    rng.range_u64(n.saturating_sub(d).max(1), n + d)
}

/// Replaces the initial value of variable `name` with its jittered form
/// (every integer in it moved like a text initialiser; the sign stays)
/// and returns the new value. `None` when the system has no such
/// variable or it has no initialiser.
pub fn jitter_init(system: &mut System, name: &str, rng: &mut SplitMix64) -> Option<Value> {
    fn moved(v: &Value, rng: &mut SplitMix64) -> Value {
        match v {
            Value::Int { value, width } => {
                let m = move_by_quarter(value.unsigned_abs(), rng) as i64;
                Value::int(if *value < 0 { -m } else { m }, *width)
            }
            Value::Array(items) => Value::Array(items.iter().map(|x| moved(x, rng)).collect()),
            other => other.clone(),
        }
    }
    let id = system.variable_by_name(name)?;
    let decl = &mut system.variables[id.index()];
    let new = moved(decl.init.as_ref()?, rng);
    decl.init = Some(new.clone());
    Some(new)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = "-- compute 99 in a comment\n\
        behavior A on m1 {\n\
        var AR : int<16> = 32;\n\
        var T : int<8>[3] = [4, 8,\n 12];\n\
        for i in 0 to 15 {\n\
        compute 20 \"step 7\";\n\
        X := X + 100;\n\
        }\n}\n";

    fn literals(s: &str) -> Vec<u64> {
        s.split(|c: char| !c.is_ascii_digit())
            .filter_map(|w| w.parse().ok())
            .collect()
    }

    #[test]
    fn only_durations_and_initialisers_move() {
        for seed in 0..200 {
            let out = jitter(SPEC, &mut SplitMix64::new(seed));
            // Comment, type width, array length, loop bounds, string and
            // assignment literals keep their place and value.
            assert!(out.starts_with("-- compute 99 in a comment\n"));
            assert!(out.contains("int<16>") && out.contains("int<8>[3]"));
            assert!(out.contains("for i in 0 to 15") && out.contains("\"step 7\""));
            assert!(out.contains("X := X + 100;"));
            let (a, b) = (literals(SPEC), literals(&out));
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                let d = x.div_ceil(4);
                let lo = x.saturating_sub(d).max(1).min(*x);
                assert!(*y >= lo && *y <= x + d, "{x} -> {y}");
            }
        }
    }

    #[test]
    fn seeds_decide_the_result() {
        let a = jitter(SPEC, &mut SplitMix64::new(1));
        assert_eq!(a, jitter(SPEC, &mut SplitMix64::new(1)));
        let distinct: std::collections::HashSet<String> = (0..50)
            .map(|s| jitter(SPEC, &mut SplitMix64::new(s)))
            .collect();
        assert!(distinct.len() > 40);
    }

    #[test]
    fn jitter_init_moves_scalars_and_arrays() {
        let mut sys = ifsyn_lang::parse_system(
            "system s; module m; behavior B on m { var K : int<16> = 1234; \
             var A : int<16>[2] = [5, 7]; var Z : int<16>; compute 1 \"x\"; }",
        )
        .expect("parses");
        let mut rng = SplitMix64::new(3);
        let k = jitter_init(&mut sys, "K", &mut rng).expect("K has an initialiser");
        let k = k.as_i64().unwrap();
        assert!((925..=1543).contains(&k));
        let a = jitter_init(&mut sys, "A", &mut rng).expect("A has an initialiser");
        assert!(matches!(a, Value::Array(ref v) if v.len() == 2));
        let decl = &sys.variables[sys.variable_by_name("K").unwrap().index()];
        assert_eq!(decl.init.as_ref().and_then(|v| v.as_i64().ok()), Some(k));
        assert_eq!(jitter_init(&mut sys, "Z", &mut rng), None);
        assert_eq!(jitter_init(&mut sys, "nope", &mut rng), None);
    }

    #[test]
    fn never_reaches_zero() {
        let mut rng = SplitMix64::new(7);
        for n in 1..40 {
            for _ in 0..50 {
                assert!(move_by_quarter(n, &mut rng) >= 1);
            }
        }
        assert_eq!(move_by_quarter(0, &mut rng), 0);
    }
}
