//! The golden-file comparison shared by the `experiments` and `ifsyn`
//! golden tests.

use std::fs;
use std::path::Path;

/// Compares `actual` with the file at `path`, or rewrites the file when
/// `IFSYN_BLESS=1`.
pub fn expect_file(path: &Path, actual: &str) {
    if std::env::var("IFSYN_BLESS").is_ok_and(|v| v == "1") {
        fs::write(path, actual).unwrap_or_else(|e| panic!("cannot bless {}: {e}", path.display()));
        return;
    }
    let expected = fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e} (IFSYN_BLESS=1 writes it)",
            path.display()
        )
    });
    if expected == actual {
        return;
    }
    let (line, want, got) = expected
        .lines()
        .map(Some)
        .chain(std::iter::repeat(None))
        .zip(actual.lines().map(Some).chain(std::iter::repeat(None)))
        .enumerate()
        .find(|(_, (e, a))| e != a)
        .map(|(i, (e, a))| (i + 1, e.unwrap_or("<end>"), a.unwrap_or("<end>")))
        .unwrap_or((0, "<trailing bytes>", "<trailing bytes>"));
    panic!(
        "{} differs first at line {line}:\n  expected: {want}\n  actual:   {got}\n\
         (IFSYN_BLESS=1 rewrites it if the change is intended)",
        path.display()
    );
}
