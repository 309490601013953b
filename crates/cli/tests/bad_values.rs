//! Values outside the range a model or a loss population is defined on
//! are input errors: exit status 1 and a message, not a panic.

#[test]
fn out_of_range_parameters_exit_1() {
    for args in [
        &["model", "--alpha", "2"][..],
        &["model", "--d", "1"],
        &["model", "--n", "0"],
        &["model", "--tp", "0"],
        &["recommend", "--alpha", "-0.5"],
        &["transport", "--ph", "1.5"],
        &["transport", "--alpha", "-1"],
        &["transport", "--pl", "NaN"],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_rekey"))
            .args(args)
            .output()
            .expect("the rekey binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "rekey {args:?}: {stderr}");
        let value = format!("invalid value {:?} for {}", args[2], args[1]);
        assert!(stderr.contains(&value), "rekey {args:?}: {stderr}");
    }
}
