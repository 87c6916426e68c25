package event

import (
	"fmt"
	"strings"
)

// Actor identifies a data consumer subject as a path reflecting the
// hierarchical structure of the organization (paper §5.1): the top-level
// organization possibly followed by department segments, separated by
// slashes. Examples:
//
//	"hospital-s-maria"
//	"hospital-s-maria/laboratory"
//	"national-governance/statistics"
type Actor string

// Validate reports whether the actor path is well formed.
func (a Actor) Validate() error {
	if a == "" {
		return invalid("event: empty actor")
	}
	for _, seg := range strings.Split(string(a), "/") {
		if seg == "" {
			return invalid(fmt.Sprintf("event: actor %q has an empty path segment", a))
		}
	}
	return nil
}

// Contains reports whether other falls under a in the organizational
// hierarchy: a == other, or a is a proper ancestor (path prefix on a
// segment boundary). A policy granted to an organization therefore covers
// all of its departments, while a department-level grant does not extend
// to siblings or to the parent.
func (a Actor) Contains(other Actor) bool {
	if a == other {
		return true
	}
	prefix := string(a) + "/"
	return strings.HasPrefix(string(other), prefix)
}

// Purpose is an explicitly stated purpose of use accompanying every
// request for details (paper §5.1: in our architecture an action
// corresponds to a purpose of use).
type Purpose string

// Well-known purposes used across the social and health scenario.
const (
	// PurposeHealthcareTreatment: healthcare treatment provisioning.
	PurposeHealthcareTreatment Purpose = "healthcare-treatment"
	// PurposeStatisticalAnalysis: statistical analysis (e.g. by the
	// statistics department of the national governance).
	PurposeStatisticalAnalysis Purpose = "statistical-analysis"
	// PurposeAdministration: administrative and reimbursement processing.
	PurposeAdministration Purpose = "administration"
	// PurposeSocialAssistance: socio-assistive service provisioning.
	PurposeSocialAssistance Purpose = "social-assistance"
	// PurposeAudit: auditing inquiry by the privacy guarantor.
	PurposeAudit Purpose = "audit"
)

// Validate reports whether the purpose is well formed (non-empty).
func (p Purpose) Validate() error {
	if p == "" {
		return invalid("event: empty purpose")
	}
	return nil
}
