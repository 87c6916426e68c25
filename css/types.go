// Package css is the public API of the CSS platform — a privacy-
// preserving, event-driven integration layer for cooperating social and
// health systems, reproducing Armellin et al., "Privacy Preserving Event
// Driven Integration for Interoperating Social and Health Systems"
// (SDM @ VLDB 2010).
//
// The platform follows the paper's summary-then-request protocol: source
// systems publish non-sensitive notification messages (who/what/when/
// where) through a central data controller, which indexes them with
// encrypted person identifiers and routes them to authorized subscribers;
// the sensitive detail messages never leave the producing source until an
// authorized, purpose-stated request for details arrives, and even then
// only the fields allowed by the producer's privacy policy are released.
//
// A minimal session:
//
//	platform, _ := css.NewPlatform()
//	defer platform.Close()
//
//	hospital, _ := platform.RegisterProducer("hospital", "Hospital")
//	hospital.DeclareClass(bloodTestSchema)
//	doctor, _ := platform.RegisterConsumer("family-doctor", "Doctors")
//
//	hospital.Policy(bloodTestSchema).
//	    SelectAllFieldsExcept("aids-test").
//	    SelectConsumers("family-doctor").
//	    SelectPurposes(css.PurposeHealthcareTreatment).
//	    Apply()
//
//	doctor.Subscribe("hospital.blood-test", func(n *css.Notification) { ... })
//	id, _ := hospital.Emit(notification, detail)
//	detail, _ := doctor.RequestDetails(id, "hospital.blood-test", css.PurposeHealthcareTreatment)
package css

import (
	"repro/internal/audit"
	"repro/internal/consent"
	"repro/internal/event"
	"repro/internal/index"
	"repro/internal/policy"
	"repro/internal/schema"
)

// Core event-model types, re-exported for single-import use.
type (
	// Notification is the non-sensitive summary message of an event.
	Notification = event.Notification
	// Detail is the sensitive payload, released field-by-field.
	Detail = event.Detail
	// DetailRequest asks for the details of a notified event.
	DetailRequest = event.DetailRequest
	// EventID is the controller-assigned global event identifier.
	EventID = event.GlobalID
	// SourceID is the producer-local event identifier.
	SourceID = event.SourceID
	// ClassID names a class of events in the catalog.
	ClassID = event.ClassID
	// FieldName names a field of an event details class.
	FieldName = event.FieldName
	// ProducerID identifies a data source organization.
	ProducerID = event.ProducerID
	// Actor identifies a consumer organizational unit (hierarchical).
	Actor = event.Actor
	// Purpose is a declared purpose of use.
	Purpose = event.Purpose
)

// Schema types.
type (
	// Schema declares the structure of an event details class.
	Schema = schema.Schema
	// Field is one typed, sensitivity-labelled schema field.
	Field = schema.Field
)

// Policy and governance types.
type (
	// Policy is a Definition-2 privacy policy {Actor, Class, Purposes, Fields}.
	Policy = policy.Policy
	// PolicyID identifies a stored policy.
	PolicyID = policy.ID
	// ConsentDirective is a citizen opt-in/opt-out decision.
	ConsentDirective = consent.Directive
	// ConsentScope delimits a directive (class/consumer/purpose).
	ConsentScope = consent.Scope
	// AuditRecord is one entry of the hash-chained access log.
	AuditRecord = audit.Record
	// AuditQuery filters the audit trail.
	AuditQuery = audit.Query
	// Inquiry filters an events index query.
	Inquiry = index.Inquiry
)

// Well-known purposes of the social and health scenario.
const (
	PurposeHealthcareTreatment = event.PurposeHealthcareTreatment
	PurposeStatisticalAnalysis = event.PurposeStatisticalAnalysis
	PurposeAdministration      = event.PurposeAdministration
	PurposeSocialAssistance    = event.PurposeSocialAssistance
	PurposeAudit               = event.PurposeAudit
)

// Field type and sensitivity constants for schema construction.
const (
	String   = schema.String
	Int      = schema.Int
	Float    = schema.Float
	Bool     = schema.Bool
	Date     = schema.Date
	DateTime = schema.DateTime
	Code     = schema.Code

	Ordinary    = schema.Ordinary
	Identifying = schema.Identifying
	Sensitive   = schema.Sensitive
)

// MustSchema declares an event class schema and panics on error, for
// statically known schemas.
func MustSchema(class ClassID, version int, doc string, fields ...Field) *Schema {
	return schema.MustNew(class, version, doc, fields...)
}

// NewDetail starts a detail message for an event.
func NewDetail(class ClassID, src SourceID, producer ProducerID) *Detail {
	return event.NewDetail(class, src, producer)
}
