// Forward declarations for the audit subsystem, so audited headers can
// declare `AuditVisit` hooks and the TestBackdoor friendship without pulling
// in the visitor definitions.
#pragma once

namespace cpt::check {

class PtAuditVisitor;
class TlbAuditVisitor;
class ReservationAuditVisitor;

// Test-only corruption seeding (tests/check_test.cc).  The single friend
// every audited class grants; production code never touches it.
class TestBackdoor;

}  // namespace cpt::check
