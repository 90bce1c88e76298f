pub fn f() -> (u8, u8, u8) {
    // lint: relaxed-ok()
    let x = 1;
    // lint: relxed-ok(typo in the kind)
    let y = 2;
    // lint: panic-ok(leftover)
    let z = 3;
    (x, y, z)
}
