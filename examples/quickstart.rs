//! Quickstart: the paper's Fig. 1 walkthrough.
//!
//! Builds the example logical key tree of nine members (degree 3),
//! runs the §2.1 join procedure for U9 and the departure procedure for
//! U4, and shows that every remaining member recovers the new group
//! key from the multicast rekey messages while the departed member
//! cannot.
//!
//! Run with: `cargo run --example quickstart`

use rand::rngs::StdRng;
use rand::SeedableRng;
use rekey_crypto::Key;
use rekey_keytree::member::GroupMember;
use rekey_keytree::message::RekeyMessage;
use rekey_keytree::server::LkhServer;
use rekey_keytree::MemberId;
use std::collections::BTreeMap;

fn describe(message: &RekeyMessage) {
    println!(
        "  multicast rekey message: {} encrypted keys, {} key advances, {} key derivations, {} bytes",
        message.encrypted_key_count(),
        message.advances.len(),
        message.derivations.len(),
        message.byte_len()
    );
    for advance in &message.advances {
        println!(
            "    K[{}] v{} = F(K[{}] v{}): every holder computes it",
            advance.node,
            advance.version,
            advance.node,
            advance.version - 1
        );
    }
    for derivation in &message.derivations {
        println!(
            "    K[{}] v{} = G(new K[{}]): every holder of that child's new key computes it",
            derivation.target, derivation.version, derivation.source
        );
    }
    for entry in &message.entries {
        let to = entry
            .recipient
            .map(|m| format!(" (for {m})"))
            .unwrap_or_default();
        println!(
            "    {{K[{}] v{}}} encrypted with K[{}] v{}{to}, needed by {} member(s)",
            entry.target, entry.target_version, entry.under, entry.under_version, entry.audience
        );
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(2003);

    // The key server maintains the logical key tree of Fig. 1:
    // degree 3, users U1..U8 to start with.
    let mut server = LkhServer::new(3, 0);
    let mut members: BTreeMap<MemberId, GroupMember> = BTreeMap::new();

    println!("== Bootstrap: U1..U8 join as one batch ==");
    let joins: Vec<(MemberId, Key)> = (1..=8)
        .map(|i| (MemberId(i), Key::generate(&mut rng)))
        .collect();
    let outcome = server.apply_batch(&joins, &[], &mut rng);
    for (id, ik) in &joins {
        let mut state = GroupMember::new(*id, ik.clone());
        state.process(&outcome.message)?;
        members.insert(*id, state);
    }
    describe(&outcome.message);
    println!(
        "  group of {} members, tree height {}, group key {}…\n",
        server.member_count(),
        server.tree().height(),
        server.root_key().fingerprint()
    );

    // -- Join procedure (§2.1): U9 joins --------------------------------
    println!("== Join procedure: U9 joins ==");
    let u9_key = Key::generate(&mut rng);
    let message = server.join(MemberId(9), u9_key.clone(), &mut rng);
    describe(&message);

    let mut u9 = GroupMember::new(MemberId(9), u9_key);
    u9.process(&message)?;
    for state in members.values_mut() {
        state.process(&message)?;
    }
    members.insert(MemberId(9), u9);
    println!(
        "  every member now holds the new group key {}…",
        server.root_key().fingerprint()
    );
    for state in members.values() {
        assert_eq!(state.key_for(server.root_node()), Some(server.root_key()));
    }
    println!("  U9 cannot read traffic recorded before its join (backward secrecy)\n");

    // -- Departure procedure (§2.1): U4 leaves --------------------------
    println!("== Departure procedure: U4 departs ==");
    let message = server.leave(MemberId(4), &mut rng)?;
    describe(&message);

    for (id, state) in members.iter_mut() {
        // Everyone sees the multicast — including the departed member.
        let _ = state.process(&message);
        if *id == MemberId(4) {
            assert_ne!(
                state.key_for(server.root_node()),
                Some(server.root_key()),
                "forward secrecy violated"
            );
        } else {
            assert_eq!(
                state.key_for(server.root_node()),
                Some(server.root_key()),
                "member {id} lost the group key"
            );
        }
    }
    println!(
        "  survivors hold the new group key {}…; U4 cannot decrypt it (forward secrecy)",
        server.root_key().fingerprint()
    );
    println!("\nquickstart OK");
    Ok(())
}
